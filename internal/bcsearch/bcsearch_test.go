package bcsearch

import (
	"testing"

	"backdroid/internal/dex"
	"backdroid/internal/dexdump"
	"backdroid/internal/simtime"
)

// searchFixture builds the LG TV Plus shape from the paper's Fig. 3/4:
// NetcastTVService.connect() constructs NetcastTVService$1 (a Runnable)
// whose run() starts NetcastHttpServer.
func searchFixture(t *testing.T) *dexdump.Text {
	t.Helper()
	f := dex.NewFile()
	add := func(b *dex.ClassBuilder) {
		t.Helper()
		if err := f.AddClass(b.Build()); err != nil {
			t.Fatal(err)
		}
	}

	objInit := dex.NewMethodRef("java.lang.Object", "<init>", dex.Void)
	startRef := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	portField := dex.NewFieldRef("com.connectsdk.service.netcast.NetcastHttpServer", "port", dex.Int)

	server := dex.NewClass("com.connectsdk.service.netcast.NetcastHttpServer").
		Field("port", dex.Int)
	ctor := server.Constructor()
	ctor.InvokeDirect(objInit, ctor.This()).ReturnVoid().Done()
	start := server.Method("start", dex.Void)
	p := start.Reg()
	start.IGet(p, start.This(), portField).ReturnVoid().Done()
	add(server)

	anon := dex.NewClass("com.connectsdk.service.NetcastTVService$1").
		Implements("java.lang.Runnable")
	actor := anon.Constructor(dex.T("com.connectsdk.service.NetcastTVService"))
	actor.InvokeDirect(objInit, actor.This()).ReturnVoid().Done()
	run := anon.Method("run", dex.Void)
	srv := run.Reg()
	serverInit := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "<init>", dex.Void)
	run.New(srv, "com.connectsdk.service.netcast.NetcastHttpServer").
		InvokeDirect(serverInit, srv).
		IPut(srv, run.This(), dex.NewFieldRef("com.connectsdk.service.NetcastTVService$1", "srv", dex.T("com.connectsdk.service.netcast.NetcastHttpServer"))).
		InvokeVirtual(startRef, srv).
		ReturnVoid().Done()
	add(anon)

	svc := dex.NewClass("com.connectsdk.service.NetcastTVService")
	connect := svc.Method("connect", dex.Void)
	r := connect.Reg()
	anonInit := dex.NewMethodRef("com.connectsdk.service.NetcastTVService$1", "<init>", dex.Void,
		dex.T("com.connectsdk.service.NetcastTVService"))
	connect.New(r, "com.connectsdk.service.NetcastTVService$1").
		InvokeDirect(anonInit, r, connect.This()).
		ConstString(connect.Reg(), "netcast.ACTION_CONNECT").
		ConstClass(connect.Reg(), "com.connectsdk.service.netcast.NetcastHttpServer").
		ReturnVoid().Done()
	add(svc)

	return dexdump.Disassemble(f)
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	return New(searchFixture(t), simtime.NewMeter(), true)
}

func TestFindInvocations(t *testing.T) {
	e := newEngine(t)
	hits, err := e.FindInvocations(dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("hits = %d, want 1", len(hits))
	}
	want := "<com.connectsdk.service.NetcastTVService$1: void run()>"
	if hits[0].Method.SootSignature() != want {
		t.Errorf("containing method = %s, want %s", hits[0].Method.SootSignature(), want)
	}
}

func TestFindInvocationsNoFalseSuffixMatches(t *testing.T) {
	e := newEngine(t)
	// Searching a method that is never invoked returns nothing — in
	// particular the server's own definition lines must not match.
	hits, err := e.FindInvocations(dex.NewMethodRef("com.connectsdk.service.NetcastTVService", "connect", dex.Void))
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 0 {
		t.Errorf("connect() is never invoked, hits = %v", hits)
	}
}

func TestFindConstructorCalls(t *testing.T) {
	e := newEngine(t)
	hits, err := e.FindConstructorCalls("com.connectsdk.service.NetcastTVService$1")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 {
		t.Fatalf("ctor hits = %d, want 1", len(hits))
	}
	if hits[0].Method.Name != "connect" {
		t.Errorf("ctor caller = %s, want connect", hits[0].Method.SootSignature())
	}
}

func TestFindConstClassAndString(t *testing.T) {
	e := newEngine(t)
	hits, err := e.FindConstClass("com.connectsdk.service.netcast.NetcastHttpServer")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Method.Name != "connect" {
		t.Errorf("const-class hits = %v", hits)
	}
	shits, err := e.FindConstString("netcast.ACTION_CONNECT")
	if err != nil {
		t.Fatal(err)
	}
	if len(shits) != 1 || shits[0].Method.Name != "connect" {
		t.Errorf("const-string hits = %v", shits)
	}
	// Substring values must not match exact search.
	none, err := e.FindConstString("netcast.ACTION")
	if err != nil {
		t.Fatal(err)
	}
	if len(none) != 0 {
		t.Errorf("partial string matched: %v", none)
	}
}

func TestFindFieldAccesses(t *testing.T) {
	e := newEngine(t)
	fld := dex.NewFieldRef("com.connectsdk.service.netcast.NetcastHttpServer", "port", dex.Int)
	reads, err := e.FindFieldAccesses(fld, FieldReads)
	if err != nil {
		t.Fatal(err)
	}
	if len(reads) != 1 || reads[0].Method.Name != "start" {
		t.Errorf("field reads = %v", reads)
	}
	writes, err := e.FindFieldAccesses(fld, FieldWrites)
	if err != nil {
		t.Fatal(err)
	}
	if len(writes) != 0 {
		t.Errorf("field writes = %v", writes)
	}
	all, err := e.FindFieldAccesses(fld, FieldAny)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 {
		t.Errorf("field any = %v", all)
	}
}

func TestFindClassUses(t *testing.T) {
	e := newEngine(t)
	hits, err := e.FindClassUses("com.connectsdk.service.netcast.NetcastHttpServer")
	if err != nil {
		t.Fatal(err)
	}
	// Uses appear in run() (new/init/iput/invoke) and connect()
	// (const-class), plus the class's own definition lines.
	methods := map[string]bool{}
	for _, h := range hits {
		if h.Method.Name != "" {
			methods[h.Method.Name] = true
		}
	}
	if !methods["run"] || !methods["connect"] {
		t.Errorf("class uses in methods = %v", methods)
	}
}

func TestFindInvocationsOfName(t *testing.T) {
	e := newEngine(t)
	hits, err := e.FindInvocationsOfNamePrefix("start")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Method.Name != "run" {
		t.Errorf("invoke-by-name hits = %v", hits)
	}
}

func TestSearchCaching(t *testing.T) {
	e := newEngine(t)
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FindInvocations(ref); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Commands != 2 || st.CacheHits != 1 {
		t.Errorf("stats = %+v, want 2 commands / 1 hit", st)
	}
	if st.Rate() != 0.5 {
		t.Errorf("rate = %f, want 0.5", st.Rate())
	}
}

func TestSearchCachingDisabled(t *testing.T) {
	e := New(searchFixture(t), simtime.NewMeter(), false)
	ref := dex.NewMethodRef("com.connectsdk.service.netcast.NetcastHttpServer", "start", dex.Void)
	for i := 0; i < 3; i++ {
		if _, err := e.FindInvocations(ref); err != nil {
			t.Fatal(err)
		}
	}
	if st := e.Stats(); st.CacheHits != 0 {
		t.Errorf("cache disabled but hits = %d", st.CacheHits)
	}
}

func TestSearchChargesMeter(t *testing.T) {
	meter := simtime.NewMeter()
	e := NewEngine(searchFixture(t), Config{Meter: meter, Backend: BackendLinear, EnableCache: true})
	if _, err := e.FindClassUses("com.connectsdk.service.netcast.NetcastHttpServer"); err != nil {
		t.Fatal(err)
	}
	full := meter.Units()
	if full == 0 {
		t.Fatal("search must charge the meter")
	}
	// A cached repeat charges a single unit.
	if _, err := e.FindClassUses("com.connectsdk.service.netcast.NetcastHttpServer"); err != nil {
		t.Fatal(err)
	}
	if got := meter.Units() - full; got != 1 {
		t.Errorf("cached search charged %d units, want 1", got)
	}
}

func TestSearchTimeout(t *testing.T) {
	meter := simtime.NewMeter()
	meter.SetBudget(1)
	e := NewEngine(searchFixture(t), Config{Meter: meter, Backend: BackendLinear, EnableCache: true})
	if _, err := e.FindConstString("anything"); err == nil {
		t.Error("search past budget must time out")
	}
}

func TestStatsRateEmpty(t *testing.T) {
	var s Stats
	if s.Rate() != 0 {
		t.Error("empty stats rate should be 0")
	}
}
