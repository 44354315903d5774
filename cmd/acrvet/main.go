// Command acrvet is the repository's invariant multichecker: it loads the
// module from source (standard library only — no go/packages) and runs the
// internal/vet analyzer suite over it. CI runs it next to go vet as a hard
// gate; any diagnostic is exit status 1.
//
// Usage:
//
//	acrvet [flags] [packages]
//
//	acrvet ./...            check the whole module
//	acrvet ./internal/sim   check one package
//	acrvet -json ./...      machine-readable diagnostics
//	acrvet -list            print the suite and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"acr/internal/vet"
)

func main() {
	var (
		jsonOut = flag.Bool("json", false, "emit diagnostics as JSON")
		list    = flag.Bool("list", false, "list analyzers and exit")
		dir     = flag.String("C", ".", "directory to resolve the module from")
	)
	flag.Parse()

	if *list {
		for _, a := range vet.Analyzers() {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	root, err := vet.FindModuleRoot(*dir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrvet:", err)
		os.Exit(2)
	}
	loader, err := vet.NewLoader(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrvet:", err)
		os.Exit(2)
	}
	prog, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "acrvet:", err)
		os.Exit(2)
	}

	diags := vet.Run(prog, vet.Analyzers())
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(os.Stderr, "acrvet:", err)
			os.Exit(2)
		}
	} else {
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "acrvet: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
