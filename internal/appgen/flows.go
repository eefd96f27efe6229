package appgen

import (
	"fmt"

	"backdroid/internal/android"
	"backdroid/internal/dex"
	"backdroid/internal/manifest"
)

var (
	objInit     = dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	activInit   = dex.NewMethodRef(android.ActivityClass, "<init>", dex.Void)
	serviceInit = dex.NewMethodRef(android.ServiceClass, "<init>", dex.Void)
	threadInit  = dex.NewMethodRef("java.lang.Thread", "<init>", dex.Void)
	threadStart = dex.NewMethodRef("java.lang.Thread", "start", dex.Void)
	execExecute = dex.NewMethodRef(android.ExecutorIface, "execute", dex.Void,
		dex.T(android.RunnableIface))
	viewInit           = dex.NewMethodRef(android.ViewClass, "<init>", dex.Void)
	setOnClickListener = dex.NewMethodRef(android.ViewClass, "setOnClickListener", dex.Void,
		dex.T(android.OnClickIface))
	startServiceRef = dex.NewMethodRef(android.ContextClass, "startService",
		dex.T("android.content.ComponentName"), dex.T(android.IntentClass))
)

// buildFlow emits the class cluster of one sink flow and hooks its driver
// into MainActivity.onCreate.
func (g *generator) buildFlow(i int, spec SinkSpec) {
	switch spec.Flow {
	case FlowDirect:
		g.flowDirect(i, spec)
	case FlowAsyncExecutor:
		g.flowAsyncExecutor(i, spec)
	case FlowCallback:
		g.flowCallback(i, spec)
	case FlowThread:
		g.flowThread(i, spec)
	case FlowClinit:
		g.flowClinit(i, spec)
	case FlowICC:
		g.flowICC(i, spec)
	case FlowSkippedLib:
		g.flowSkippedLib(i, spec)
	case FlowUnregistered:
		g.flowUnregistered(i, spec)
	case FlowDead:
		g.flowDead(i, spec)
	case FlowSubclassSink:
		g.flowSubclassSink(i, spec)
	case FlowChildClass:
		g.flowChildClass(i, spec)
	case FlowSuperPoly:
		g.flowSuperPoly(i, spec)
	case FlowRecursive:
		g.flowRecursive(i, spec)
	case FlowDirectPair:
		g.flowDirectPair(i, spec)
	case FlowSharedConfig:
		g.flowSharedConfig(i, spec)
	default:
		if g.err == nil {
			g.err = fmt.Errorf("appgen: unknown flow %v", spec.Flow)
		}
	}
}

func (g *generator) flowDirect(i int, spec SinkSpec) {
	name := fmt.Sprintf("DirectHelper%d", i)
	cb := dex.NewClass(g.cls(name))
	mb := cb.StaticMethod("doWork", dex.Void)
	g.emitSinkCall(mb, spec)
	mb.ReturnVoid().Done()
	g.add(cb)
	g.mainOnCreate.InvokeStatic(dex.NewMethodRef(g.cls(name), "doWork", dex.Void))
	g.addTruth(spec, g.cls(name), "doWork", true)
}

// Shared-config chain parameters: the chain is sharedConfigDepth contained
// static methods deep, and every step carries sharedConfigFiller untainted
// statements that the backward scan must visit (charged) but never records
// — the shape that makes re-slicing the chain per sink expensive and
// interning it per app cheap.
const (
	sharedConfigDepth  = 10
	sharedConfigFiller = 25
)

// sharedConfigRef returns (emitting on first use) the head of the shared
// configuration chain for the given security level:
// CryptoConfig{Secure,Insecure}.algorithm() -> step1() -> ... -> stepN(),
// where the tail returns the crypto transformation string. Every
// FlowSharedConfig sink of the app calls the same head, so all their
// backward slices traverse one shared subgraph — the many-sink outlier
// shape.
func (g *generator) sharedConfigRef(insecure bool) dex.MethodRef {
	if ref, ok := g.sharedConfig[insecure]; ok {
		return ref
	}
	level, value := "Secure", "AES/GCM/NoPadding"
	if insecure {
		level, value = "Insecure", "AES/ECB/PKCS5Padding"
	}
	clsName := g.cls("CryptoConfig" + level)
	strT := dex.T("java.lang.String")
	cb := dex.NewClass(clsName)

	filler := func(mb *dex.MethodBuilder, step int) {
		for k := 0; k < sharedConfigFiller; k++ {
			mb.ConstString(mb.Reg(), fmt.Sprintf("cfg-%s-%d-%d", level, step, k))
		}
	}
	// Tail: the literal transformation value.
	tailName := fmt.Sprintf("step%d", sharedConfigDepth)
	tail := cb.StaticMethod(tailName, strT)
	v := tail.Reg()
	tail.ConstString(v, value)
	filler(tail, sharedConfigDepth)
	tail.Return(v).Done()

	// Intermediate steps, each forwarding the next step's return value.
	next := dex.NewMethodRef(clsName, tailName, strT)
	for step := sharedConfigDepth - 1; step >= 1; step-- {
		name := fmt.Sprintf("step%d", step)
		mb := cb.StaticMethod(name, strT)
		r := mb.Reg()
		mb.InvokeStatic(next).MoveResult(r)
		filler(mb, step)
		out := mb.Reg()
		mb.Move(out, r).Return(out).Done()
		next = dex.NewMethodRef(clsName, name, strT)
	}

	head := cb.StaticMethod("algorithm", strT)
	r := head.Reg()
	head.InvokeStatic(next).MoveResult(r)
	filler(head, 0)
	head.Return(r).Done()
	g.add(cb)

	ref := dex.NewMethodRef(clsName, "algorithm", strT)
	if g.sharedConfig == nil {
		g.sharedConfig = make(map[bool]dex.MethodRef)
	}
	g.sharedConfig[insecure] = ref
	return ref
}

// flowSharedConfig emits one sink whose parameter is resolved through the
// app-shared configuration chain (always a crypto sink: the chain returns
// the transformation string).
func (g *generator) flowSharedConfig(i int, spec SinkSpec) {
	cfg := g.sharedConfigRef(spec.Insecure)
	name := fmt.Sprintf("SharedSink%d", i)
	cb := dex.NewClass(g.cls(name))
	mb := cb.StaticMethod("doWork", dex.Void)
	s, c := mb.Reg(), mb.Reg()
	mb.InvokeStatic(cfg).
		MoveResult(s).
		InvokeStatic(android.CipherGetInstance, s).
		MoveResult(c).
		ReturnVoid().Done()
	g.add(cb)
	g.mainOnCreate.InvokeStatic(dex.NewMethodRef(g.cls(name), "doWork", dex.Void))
	g.addTruth(spec, g.cls(name), "doWork", true)
}

func (g *generator) flowAsyncExecutor(i int, spec SinkSpec) {
	anonName := g.cls(fmt.Sprintf("AsyncJob%d", i))
	anon := dex.NewClass(anonName).Implements(android.RunnableIface)
	ctor := anon.Constructor()
	ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
	run := anon.Method("run", dex.Void)
	g.emitSinkCall(run, spec)
	run.ReturnVoid().Done()
	g.add(anon)

	utilName := g.cls(fmt.Sprintf("AsyncUtil%d", i))
	util := dex.NewClass(utilName).
		StaticField("executor", dex.T(android.ExecutorIface))
	rib := util.StaticMethod("runInBackground", dex.Void, dex.T(android.RunnableIface))
	ex := rib.Reg()
	rib.SGet(ex, dex.NewFieldRef(utilName, "executor", dex.T(android.ExecutorIface))).
		InvokeInterface(execExecute, ex, rib.Param(0)).
		ReturnVoid().Done()
	g.add(util)

	oc := g.mainOnCreate
	r := oc.Reg()
	oc.New(r, anonName).
		InvokeDirect(dex.NewMethodRef(anonName, "<init>", dex.Void), r).
		InvokeStatic(dex.NewMethodRef(utilName, "runInBackground", dex.Void, dex.T(android.RunnableIface)), r)
	g.addTruth(spec, anonName, "run", true)
}

func (g *generator) flowCallback(i int, spec SinkSpec) {
	lName := g.cls(fmt.Sprintf("ClickListener%d", i))
	l := dex.NewClass(lName).Implements(android.OnClickIface)
	ctor := l.Constructor()
	ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
	onClick := l.Method("onClick", dex.Void, dex.T(android.ViewClass))
	g.emitSinkCall(onClick, spec)
	onClick.ReturnVoid().Done()
	g.add(l)

	oc := g.mainOnCreate
	view, lst := oc.Reg(), oc.Reg()
	oc.New(view, android.ViewClass).
		InvokeDirect(viewInit, view).
		New(lst, lName).
		InvokeDirect(dex.NewMethodRef(lName, "<init>", dex.Void), lst).
		InvokeVirtual(setOnClickListener, view, lst)
	g.addTruth(spec, lName, "onClick", true)
}

func (g *generator) flowThread(i int, spec SinkSpec) {
	tName := g.cls(fmt.Sprintf("WorkThread%d", i))
	tc := dex.NewClass(tName).Extends("java.lang.Thread")
	ctor := tc.Constructor()
	ctor.InvokeDirect(threadInit, ctor.This()).ReturnVoid().Done()
	run := tc.Method("run", dex.Void)
	g.emitSinkCall(run, spec)
	run.ReturnVoid().Done()
	g.add(tc)

	oc := g.mainOnCreate
	th := oc.Reg()
	oc.New(th, tName).
		InvokeDirect(dex.NewMethodRef(tName, "<init>", dex.Void), th).
		InvokeVirtual(threadStart, th)
	g.addTruth(spec, tName, "run", true)
}

func (g *generator) flowClinit(i int, spec SinkSpec) {
	cfgName := g.cls(fmt.Sprintf("Config%d", i))
	cfg := dex.NewClass(cfgName).StaticField("MODE", dex.StringT)
	ci := cfg.StaticInitializer()
	r := ci.Reg()
	ci.ConstString(r, g.cryptoValue(spec.Insecure)).
		SPut(r, dex.NewFieldRef(cfgName, "MODE", dex.StringT)).
		ReturnVoid().Done()
	g.add(cfg)

	hName := g.cls(fmt.Sprintf("ClinitHelper%d", i))
	hb := dex.NewClass(hName)
	mb := hb.StaticMethod("doWork", dex.Void)
	m, c := mb.Reg(), mb.Reg()
	mb.SGet(m, dex.NewFieldRef(cfgName, "MODE", dex.StringT)).
		InvokeStatic(android.CipherGetInstance, m).
		MoveResult(c).
		ReturnVoid().Done()
	g.add(hb)

	g.mainOnCreate.InvokeStatic(dex.NewMethodRef(hName, "doWork", dex.Void))
	g.addTruth(spec, hName, "doWork", true)
}

func (g *generator) flowICC(i int, spec SinkSpec) {
	svcName := g.cls(fmt.Sprintf("WorkService%d", i))
	svc := dex.NewClass(svcName).Extends(android.ServiceClass)
	ctor := svc.Constructor()
	ctor.InvokeDirect(serviceInit, ctor.This()).ReturnVoid().Done()
	onCreate := svc.Method("onCreate", dex.Void)
	g.emitSinkCall(onCreate, spec)
	onCreate.ReturnVoid().Done()
	g.add(svc)
	g.man.Add(manifest.Service, svcName)

	oc := g.mainOnCreate
	intent, klass := oc.Reg(), oc.Reg()
	oc.New(intent, android.IntentClass).
		ConstClass(klass, svcName).
		InvokeDirect(android.IntentCtorExplicit, intent, oc.This(), klass).
		InvokeVirtual(startServiceRef, oc.This(), intent)
	g.addTruth(spec, svcName, "onCreate", true)
}

// flowRecursive puts the sink inside a pair of mutually recursive helpers:
// backward search returns to a method already on the path, which the
// engine must cut and count (the CrossBackward loops of Sec. IV-F; real
// apps made 60% of the paper's corpus trip loop detection).
func (g *generator) flowRecursive(i int, spec SinkSpec) {
	name := g.cls(fmt.Sprintf("RecursiveHelper%d", i))
	aRef := dex.NewMethodRef(name, "stepA", dex.Void)
	bRef := dex.NewMethodRef(name, "stepB", dex.Void)

	cb := dex.NewClass(name)
	sa := cb.StaticMethod("stepA", dex.Void)
	g.emitSinkCall(sa, spec)
	sa.InvokeStatic(bRef).ReturnVoid().Done()
	sb := cb.StaticMethod("stepB", dex.Void)
	sb.InvokeStatic(aRef).ReturnVoid().Done()
	g.add(cb)

	g.mainOnCreate.InvokeStatic(aRef)
	g.addTruth(spec, name, "stepA", true)
}

// flowDirectPair emits two sink calls in one method, so the second one is
// answered by the sink reachability cache (the Sec. IV-F sink API call
// caching; the paper measured 13.86% of sink calls cached on average).
func (g *generator) flowDirectPair(i int, spec SinkSpec) {
	name := g.cls(fmt.Sprintf("PairHelper%d", i))
	cb := dex.NewClass(name)
	mb := cb.StaticMethod("doBoth", dex.Void)
	g.emitSinkCall(mb, spec)
	g.emitSinkCall(mb, spec)
	mb.ReturnVoid().Done()
	g.add(cb)
	g.mainOnCreate.InvokeStatic(dex.NewMethodRef(name, "doBoth", dex.Void))
	g.addTruth(spec, name, "doBoth", true)
	g.addTruth(spec, name, "doBoth", true)
}

func (g *generator) flowSkippedLib(i int, spec SinkSpec) {
	// The class lives in a liblist package the baseline skips entirely.
	libPkgs := []string{"com.facebook.crypto", "com.amazon.identity", "com.tencent.smtt", "com.heyzap.http"}
	libName := fmt.Sprintf("%s.LibHelper%d", libPkgs[i%len(libPkgs)], i)
	lb := dex.NewClass(libName)
	mb := lb.StaticMethod("doWork", dex.Void)
	g.emitSinkCall(mb, spec)
	mb.ReturnVoid().Done()
	g.add(lb)
	g.mainOnCreate.InvokeStatic(dex.NewMethodRef(libName, "doWork", dex.Void))
	g.addTruth(spec, libName, "doWork", true)
}

func (g *generator) flowUnregistered(i int, spec SinkSpec) {
	uName := g.cls(fmt.Sprintf("UnregActivity%d", i))
	ub := dex.NewClass(uName).Extends(android.ActivityClass)
	onCreate := ub.Method("onCreate", dex.Void, dex.T(android.BundleClass))
	g.emitSinkCall(onCreate, spec)
	onCreate.ReturnVoid().Done()
	g.add(ub)
	// Not added to the manifest and never constructed: truly unreachable.
	g.addTruth(spec, uName, "onCreate", false)
}

func (g *generator) flowDead(i int, spec SinkSpec) {
	dName := g.cls(fmt.Sprintf("DeadCode%d", i))
	db := dex.NewClass(dName)
	mb := db.StaticMethod("unused", dex.Void)
	g.emitSinkCall(mb, spec)
	mb.ReturnVoid().Done()
	g.add(db)
	g.addTruth(spec, dName, "unused", false)
}

func (g *generator) flowSubclassSink(i int, spec SinkSpec) {
	// App subclass of the sink's declaring class; the sink API is invoked
	// under the subclass's own signature (the paper's two BackDroid FNs,
	// e.g. com.youzu.android.framework.http.client.DefaultSSLSocketFactory).
	facName := g.cls(fmt.Sprintf("MySSLSocketFactory%d", i))
	fb := dex.NewClass(facName).Extends(android.SSLSocketFactoryClass)
	ctor := fb.Constructor()
	ctor.InvokeDirect(dex.NewMethodRef(android.SSLSocketFactoryClass, "<init>", dex.Void), ctor.This()).
		ReturnVoid().Done()
	g.add(fb)

	hName := g.cls(fmt.Sprintf("SubclassSinkHelper%d", i))
	hb := dex.NewClass(hName)
	mb := hb.StaticMethod("doWork", dex.Void)
	fac, ver := mb.Reg(), mb.Reg()
	subSink := android.SSLSetHostnameVerifier.WithClass(facName)
	mb.New(fac, facName).
		InvokeDirect(dex.NewMethodRef(facName, "<init>", dex.Void), fac)
	if spec.Insecure {
		mb.SGet(ver, android.AllowAllVerifierField)
	} else {
		mb.ConstNull(ver)
	}
	mb.InvokeVirtual(subSink, fac, ver).
		ReturnVoid().Done()
	g.add(hb)

	g.mainOnCreate.InvokeStatic(dex.NewMethodRef(hName, "doWork", dex.Void))
	g.addTruth(spec, hName, "doWork", true)
}

func (g *generator) flowChildClass(i int, spec SinkSpec) {
	baseName := g.cls(fmt.Sprintf("CryptoBase%d", i))
	bb := dex.NewClass(baseName)
	ctor := bb.Constructor()
	ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
	doCrypto := bb.Method("doCrypto", dex.Void)
	g.emitSinkCall(doCrypto, spec)
	doCrypto.ReturnVoid().Done()
	g.add(bb)

	childName := g.cls(fmt.Sprintf("CryptoChild%d", i))
	cb := dex.NewClass(childName).Extends(baseName)
	cctor := cb.Constructor()
	cctor.InvokeDirect(dex.NewMethodRef(baseName, "<init>", dex.Void), cctor.This()).
		ReturnVoid().Done()
	g.add(cb)

	oc := g.mainOnCreate
	ch := oc.Reg()
	oc.New(ch, childName).
		InvokeDirect(dex.NewMethodRef(childName, "<init>", dex.Void), ch).
		InvokeVirtual(dex.NewMethodRef(childName, "doCrypto", dex.Void), ch)
	g.addTruth(spec, baseName, "doCrypto", true)
}

func (g *generator) flowSuperPoly(i int, spec SinkSpec) {
	superName := g.cls(fmt.Sprintf("SuperWorker%d", i))
	sb := dex.NewClass(superName)
	sctor := sb.Constructor()
	sctor.InvokeDirect(objInit, sctor.This()).ReturnVoid().Done()
	sb.Method("work", dex.Void).ReturnVoid().Done()
	g.add(sb)

	subName := g.cls(fmt.Sprintf("SubWorker%d", i))
	ub := dex.NewClass(subName).Extends(superName)
	uctor := ub.Constructor()
	uctor.InvokeDirect(dex.NewMethodRef(superName, "<init>", dex.Void), uctor.This()).
		ReturnVoid().Done()
	work := ub.Method("work", dex.Void)
	g.emitSinkCall(work, spec)
	work.ReturnVoid().Done()
	g.add(ub)

	oc := g.mainOnCreate
	w := oc.Reg()
	oc.New(w, subName).
		InvokeDirect(dex.NewMethodRef(subName, "<init>", dex.Void), w).
		InvokeVirtual(dex.NewMethodRef(superName, "work", dex.Void), w)
	g.addTruth(spec, subName, "work", true)
}
