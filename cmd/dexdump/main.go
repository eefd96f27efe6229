// Command dexdump disassembles an app container's (merged) dex bytecode
// into the searchable plaintext that BackDroid greps.
//
// Usage:
//
//	dexdump app.apk
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"backdroid/internal/apk"
	"backdroid/internal/dexdump"
)

func main() {
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: dexdump app.apk")
		os.Exit(2)
	}
	if err := run(os.Stdout, flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "dexdump:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, path string) error {
	app, err := apk.Load(path)
	if err != nil {
		return err
	}
	_, text, err := dexdump.RenderApp(app)
	if err != nil {
		return err
	}
	_, err = io.WriteString(w, text.String())
	return err
}
