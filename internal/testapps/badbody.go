package testapps

import (
	"archive/zip"
	"bytes"

	"backdroid/internal/apk"
	"backdroid/internal/dex"
)

// BadBodyContainer returns the Fixture app's container with a second dex
// entry, classes2.dex, that carries a valid dex magic and a hostile body:
// a string pool claiming far more entries than bytes follow. It also
// returns that entry's bytes. Reading the container succeeds, since a
// read checks only the magic; the first touch of the second dex file's
// classes fails to decode it.
func BadBodyContainer() (container, badDex []byte, err error) {
	app, err := Fixture()
	if err != nil {
		return nil, nil, err
	}
	good := dex.Encode(app.Dexes[0])
	magic := len("GDEX0001") // the magic dex.Encode writes first
	badDex = append(good[:magic:magic], 0xff, 0xff, 0xff, 0x7f)
	return withSecondDex(app, good, badDex)
}

// BadCodeContainer is BadBodyContainer with the hostile part inside a
// method body: classes2.dex has a valid pool and class table, and its one
// class's one method is an invoke-static that carries no method ref. Only
// a decode that walks the method bodies rejects it.
func BadCodeContainer() (container, badDex []byte, err error) {
	app, err := Fixture()
	if err != nil {
		return nil, nil, err
	}
	mb := dex.NewClass(Pkg+".Hostile").StaticMethod("run", dex.Void)
	mb.ReturnVoid()
	c := mb.Done().Build()
	m := c.Methods[0]
	m.Code = append([]dex.Instruction{{Op: dex.OpInvokeStatic}}, m.Code...)
	bad := dex.NewFile()
	if err := bad.AddClass(c); err != nil {
		return nil, nil, err
	}
	return withSecondDex(app, dex.Encode(app.Dexes[0]), dex.Encode(bad))
}

// withSecondDex writes app's manifest, good as classes.dex and badDex as
// classes2.dex into a container.
func withSecondDex(app *apk.App, good, badDex []byte) (container, _ []byte, err error) {
	mf, err := app.Manifest.ToXML()
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	zw := zip.NewWriter(&buf)
	for _, e := range []struct {
		name string
		data []byte
	}{{"AndroidManifest.xml", mf}, {"classes.dex", good}, {"classes2.dex", badDex}} {
		w, err := zw.Create(e.name)
		if err != nil {
			return nil, nil, err
		}
		if _, err := w.Write(e.data); err != nil {
			return nil, nil, err
		}
	}
	if err := zw.Close(); err != nil {
		return nil, nil, err
	}
	return buf.Bytes(), badDex, nil
}
