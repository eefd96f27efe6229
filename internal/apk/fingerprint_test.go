package apk_test

import (
	"sync"
	"testing"

	"backdroid/internal/apk"
	"backdroid/internal/appgen"
	"backdroid/internal/dexdump"
	"backdroid/internal/testapps"
)

// checkFingerprint pins, for one in-memory app, that the fingerprint of
// its container read back (hashed from the dex bytes as read) equals
// dexdump.AppFingerprint of the decoded dex files and the in-memory app's
// own Fingerprint (hashed from a fresh encoding).
func checkFingerprint(t *testing.T, app *apk.App) {
	t.Helper()
	data, err := app.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	read, err := apk.ReadBytes(app.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	got := read.Fingerprint()
	if want := dexdump.AppFingerprint(read.Dexes); got != want {
		t.Errorf("%s: read Fingerprint %#x, AppFingerprint of the decoded dexes %#x", app.Name, got, want)
	}
	if want := app.Fingerprint(); got != want {
		t.Errorf("%s: read Fingerprint %#x, in-memory Fingerprint %#x", app.Name, got, want)
	}
	if again := read.Fingerprint(); again != got {
		t.Errorf("%s: memoized Fingerprint changed: %#x then %#x", app.Name, got, again)
	}
}

// TestFingerprintConcurrent calls Fingerprint on one freshly read app
// from several goroutines at once, as fleet nodes running chunks of one
// job do.
func TestFingerprintConcurrent(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	data, err := app.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	read, err := apk.ReadBytes(app.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]uint64, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = read.Fingerprint()
		}()
	}
	wg.Wait()
	want := dexdump.AppFingerprint(read.Dexes)
	for i, fp := range got {
		if fp != want {
			t.Errorf("goroutine %d: Fingerprint %#x, want %#x", i, fp, want)
		}
	}
}

// TestReadAppConcurrent touches one freshly read multidex app from
// several goroutines at once — each dex file's Classes, MergedDex and
// Fingerprint, as concurrent attempts of one job do — so the first-touch
// decode and the fingerprint's release of the dex bytes race under -race.
func TestReadAppConcurrent(t *testing.T) {
	spec := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 1, Seed: 20200523, SizeScale: 0.05})[0]
	spec.MultiDex = true
	app, _, err := appgen.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	data, err := app.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	read, err := apk.ReadBytes(app.Name, data)
	if err != nil {
		t.Fatal(err)
	}
	if len(read.Dexes) < 2 {
		t.Fatalf("multidex spec read back %d dex files", len(read.Dexes))
	}
	want := app.Fingerprint()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			switch i % 3 {
			case 0:
				for _, d := range read.Dexes {
					if len(d.Classes()) == 0 {
						t.Error("a dex file decoded to no classes")
					}
				}
			case 1:
				if _, err := read.MergedDex(); err != nil {
					t.Error(err)
				}
			case 2:
				if fp := read.Fingerprint(); fp != want {
					t.Errorf("Fingerprint %#x, want %#x", fp, want)
				}
			}
		}()
	}
	wg.Wait()
	if got := dexdump.AppFingerprint(read.Dexes); got != want {
		t.Errorf("AppFingerprint of the decoded dexes %#x, want %#x", got, want)
	}
}

// FuzzReadAPK feeds arbitrary bytes to apk.ReadBytes, seeded with the
// containers of generated apps (one multidex), the testapps fixture and
// the fixture with a hostile classes2.dex body. Whatever Read accepts
// must fingerprint, merge (or fail to merge with an error) and render
// (or fail past the dump bound with an error) without panicking.
func FuzzReadAPK(f *testing.F) {
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 3, Seed: 20200523, SizeScale: 0.02})
	specs[0].MultiDex = true
	for _, spec := range specs {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			f.Fatal(err)
		}
		data, err := app.Bytes()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	fixture, err := testapps.Fixture()
	if err != nil {
		f.Fatal(err)
	}
	data, err := fixture.Bytes()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	hostile, _, err := testapps.BadBodyContainer()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(hostile)
	f.Fuzz(func(t *testing.T, data []byte) {
		app, err := apk.ReadBytes("fuzz", data)
		if err != nil {
			return
		}
		app.Fingerprint()
		merged, err := app.MergedDex()
		if err != nil {
			return
		}
		dexdump.Render(merged)
	})
}

func TestFingerprintEvalCorpus(t *testing.T) {
	specs := appgen.EvalCorpus(appgen.CorpusOptions{Apps: 6, Seed: 20200523, SizeScale: 0.05})
	specs[0].MultiDex = true
	for _, spec := range specs {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		if spec.MultiDex && len(app.Dexes) < 2 {
			t.Fatalf("%s: multidex spec built %d dex files", spec.Name, len(app.Dexes))
		}
		checkFingerprint(t, app)
	}
}

func TestFingerprintTestappsFixture(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	checkFingerprint(t, app)
}

// TestFingerprintGolden pins the fingerprint value itself, so bundle
// headers, report keys and journal records written by earlier builds stay
// addressable.
func TestFingerprintGolden(t *testing.T) {
	app, err := testapps.Fixture()
	if err != nil {
		t.Fatal(err)
	}
	const want uint64 = 0xb7b6420384468f22
	if got := app.Fingerprint(); got != want {
		t.Errorf("fixture fingerprint %#x, want %#x", got, want)
	}
}
