package core

import (
	"backdroid/internal/constprop"
	"backdroid/internal/dex"
	"backdroid/internal/ssg"
)

// propagate runs the forward constant and points-to propagation over the
// sink's SSG (paper Sec. V-B) and returns the typed values that reach the
// tracked sink parameter; the caller renders them and judges the
// vulnerability rule on them.
func (e *Engine) propagate(g *ssg.Graph, call SinkCall) ([]constprop.Value, error) {
	res, err := constprop.Run(g, e.meter, constprop.Options{
		SinkParamIndex: call.Sink.ParamIndex,
		MaxDepth:       e.opts.MaxDepth,
		// Belt and braces for the delta footprint: the forward pass only
		// walks SSG-recorded units and prog bodies (both already
		// observed), but the explicit seam keeps the recording honest if
		// constprop ever grows a direct bytecode dependency.
		OnMethod: func(ref dex.MethodRef) { e.rec.class(ref.Class) },
	})
	if err != nil {
		return nil, err
	}
	return res.SinkValues, nil
}
