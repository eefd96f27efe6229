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
	if err := run(flag.Arg(0)); err != nil {
		fmt.Fprintln(os.Stderr, "dexdump:", err)
		os.Exit(1)
	}
}

func run(path string) error {
	app, err := apk.Load(path)
	if err != nil {
		return err
	}
	merged, err := app.MergedDex()
	if err != nil {
		return err
	}
	text, err := dexdump.Render(merged)
	if err != nil {
		return err
	}
	fmt.Print(text.String())
	return nil
}
