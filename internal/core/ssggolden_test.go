package core_test

import (
	"encoding/binary"
	"hash/fnv"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/core"
	"backdroid/internal/service"
	"backdroid/internal/testapps"
)

// ssgGolden pins one app's analysis output: the hash of every sink's
// SSG dump (SSG.String(), the `backdroid -show-ssg` text) in report
// order, the hash of the canonical settled-report bytes, and the charged
// units of the whole run.
type ssgGolden struct {
	app    string
	ssg    uint64
	report uint64
	units  int64
}

// goldenSSGs pins the fixture, the 24-app bench corpus (SizeScale 0.15,
// seed 20200523) and heavy-tail's 121-sink outlier, in that order. A
// change to the slicer or the forward pass that moves any of these
// changes what `-show-ssg` prints, what a report says or what a run is
// charged; none of those may move without a stated reason.
var goldenSSGs = []ssgGolden{
	{"com.fixture.app", 0x7588e45ffb849499, 0x055094cc8b4f25ed, 156},
	{"com.corpus.app000", 0x66563a7bc9fb4076, 0x4adbc246cc282002, 1567},
	{"com.corpus.app001", 0xc9c2ec28d5ecffb0, 0x818062430d427209, 1014},
	{"com.corpus.app002", 0x693fcefee13ace98, 0x6793ce77bf361529, 3569},
	{"com.corpus.app003", 0x92a876ed72ed63b1, 0xeb00bf4b1794864f, 3054},
	{"com.corpus.app004", 0x7d23900739b985c7, 0x50cef42117d07fdc, 821},
	{"com.corpus.app005", 0xac23c2d642e1a0dc, 0x9ed81618dee8e3b3, 5345},
	{"com.corpus.app006", 0x87352a21ddbb12d3, 0xe9b914517a49c7c3, 1244},
	{"com.corpus.app007", 0x5c788cda3c40d887, 0xacf101094a07893d, 3168},
	{"com.corpus.app008", 0x72d23c2cdd1a6fbb, 0x44b90a7831d2430e, 931},
	{"com.corpus.app009", 0x86b4f8c55abb5c29, 0xc9cde3e232e9676a, 6403},
	{"com.corpus.app010", 0x11c6bb70fb5aa6af, 0xd04b36bf42aa47cc, 750},
	{"com.corpus.app011", 0xc3c179e9dfc35b2d, 0x671c34a418ad250f, 1011},
	{"com.corpus.app012", 0x57b5ac49feff4228, 0x31707b53d2be7434, 1877},
	{"com.corpus.app013", 0x2237d1e45e185411, 0xa22dc0ce4f86bf53, 560},
	{"com.corpus.app014", 0xd4bc9a92fecaca16, 0x06dfefbd578c3377, 1971},
	{"com.corpus.app015", 0x05c4248986ea93bb, 0xe85f21fd902476f9, 2293},
	{"com.corpus.app016", 0x8531178ef1f129f0, 0x9b419a064e4a2ccd, 1461},
	{"com.corpus.app017", 0x2ca0e90b1a047221, 0x1a7dacb54e50447d, 2053},
	{"com.corpus.app018", 0x26e1e80973e60c28, 0x79e24f2e4155ed30, 1743},
	{"com.corpus.app019", 0x0f4b260ac78756c7, 0x14691d49fcfd5782, 1579},
	{"com.corpus.app020", 0xc50a3a961a0b5bdb, 0xd82b7da31dc3457c, 5544},
	{"com.corpus.app021", 0xe47003e460008dd4, 0x27857b286c3e5634, 853},
	{"com.corpus.app022", 0x86fec259db796c93, 0x0eaa0fd5c7684c25, 1607},
	{"com.corpus.app023", 0x9b43e90b780f3787, 0xfb6f7ded02382fe9, 602},
	{"com.outlier.manysink", 0x891598467e381eea, 0xb180d3472f6dc9aa, 57798},
}

// goldenSSGApps builds the pinned apps in goldenSSGs order.
func goldenSSGApps(t *testing.T) []*apk.App {
	t.Helper()
	fixture, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	apps := []*apk.App{fixture}
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 24, SizeScale: 0.15, Seed: 20200523})
	specs = append(specs, appgen.HeavyTailCorpus(appgen.HeavyTailOptions{Seed: 20200523})[0])
	for _, spec := range specs {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, app)
	}
	return apps
}

// TestSSGDumpGolden runs a cold default-options analysis of every pinned
// app and compares its SSG dumps, canonical report and charged units
// with the pins.
func TestSSGDumpGolden(t *testing.T) {
	apps := goldenSSGApps(t)
	if len(apps) != len(goldenSSGs) {
		for _, app := range apps {
			t.Log(measureSSGGolden(t, app))
		}
		t.Fatalf("%d apps, %d pinned", len(apps), len(goldenSSGs))
	}
	for i, app := range apps {
		got, want := measureSSGGolden(t, app), goldenSSGs[i]
		if got != want {
			t.Errorf("app %d: got %#v, pinned %#v", i, got, want)
		}
	}
}

func measureSSGGolden(t *testing.T, app *apk.App) ssgGolden {
	t.Helper()
	e, err := core.New(app, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	var n [8]byte
	for _, s := range r.Sinks {
		dump := ""
		if s.SSG != nil {
			dump = s.SSG.String()
		}
		binary.LittleEndian.PutUint64(n[:], uint64(len(dump)))
		h.Write(n[:])
		h.Write([]byte(dump))
	}
	rh := fnv.New64a()
	rh.Write(service.EncodeReport(r))
	return ssgGolden{app: app.Name, ssg: h.Sum64(), report: rh.Sum64(), units: r.Stats.WorkUnits}
}
