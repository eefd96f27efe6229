package manifest_test

import (
	"reflect"
	"testing"

	"backdroid/internal/appgen"
	"backdroid/internal/manifest"
	"backdroid/internal/testapps"
)

// FuzzParseXML feeds ParseXML arbitrary bytes, as apk.Read does with an
// app's AndroidManifest.xml. It must never panic, and every manifest it
// accepts must survive a ToXML/ParseXML round trip unchanged. Seeds are
// the serialized manifests of the fixture and of a small generated
// corpus.
func FuzzParseXML(f *testing.F) {
	fixture, err := testapps.Fixture()
	if err != nil {
		f.Fatal(err)
	}
	manifests := []*manifest.Manifest{fixture.Manifest}
	for _, spec := range appgen.EvalCorpus(appgen.CorpusOptions{Apps: 6, SizeScale: 0.05, Seed: 20200523}) {
		app, _, err := appgen.Generate(spec)
		if err != nil {
			f.Fatal(err)
		}
		manifests = append(manifests, app.Manifest)
	}
	for _, m := range manifests {
		data, err := m.ToXML()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := manifest.ParseXML(data)
		if err != nil {
			return
		}
		out, err := m.ToXML()
		if err != nil {
			t.Fatalf("ToXML of a parsed manifest: %v", err)
		}
		again, err := manifest.ParseXML(out)
		if err != nil {
			t.Fatalf("ParseXML rejects its own ToXML output: %v\n%s", err, out)
		}
		if !reflect.DeepEqual(again, m) {
			t.Fatalf("round trip changed the manifest:\n%+v\nwant\n%+v", again, m)
		}
	})
}
