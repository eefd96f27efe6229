package testapps

import (
	"archive/zip"
	"bytes"

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
	mf, err := app.Manifest.ToXML()
	if err != nil {
		return nil, nil, err
	}
	good := dex.Encode(app.Dexes[0])
	magic := len("GDEX0001") // the magic dex.Encode writes first
	badDex = append(good[:magic:magic], 0xff, 0xff, 0xff, 0x7f)
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
