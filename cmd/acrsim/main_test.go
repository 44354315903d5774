package main

import (
	"testing"

	"acr/internal/bench"
	"acr/internal/ckpt"
)

// TestParseSpecRoundTrip: every renderable configuration name must parse
// back to a spec that renders the same name — the CLI accepts exactly what
// the tables print.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, kind := range ckpt.Kinds() {
		for _, errs := range []int{0, 1} {
			for _, local := range []bool{false, true} {
				spec := bench.Spec{Ckpt: true, Strategy: kind, Errors: errs, Local: local}
				name := spec.String()
				parsed, err := parseSpec(name)
				if err != nil {
					t.Errorf("parseSpec(%q): %v", name, err)
					continue
				}
				if got := parsed.String(); got != name {
					t.Errorf("parseSpec(%q) renders %q", name, got)
				}
				if parsed.Kind() != kind {
					t.Errorf("parseSpec(%q).Kind() = %v, want %v", name, parsed.Kind(), kind)
				}
				if (parsed.Errors > 0) != (errs > 0) || parsed.Local != local {
					t.Errorf("parseSpec(%q) = %+v, want errors=%d local=%v",
						name, parsed, errs, local)
				}
			}
		}
	}
}

// TestParseSpecLegacyAliases: the historical flat spellings keep parsing.
func TestParseSpecLegacyAliases(t *testing.T) {
	cases := map[string]string{
		"nockpt":        "NoCkpt",
		"NoCkpt":        "NoCkpt",
		"ckptne":        "Ckpt_NE",
		"ckpte":         "Ckpt_E",
		"reckptne":      "ReCkpt_NE",
		"reckpteloc":    "ReCkpt_E,Loc",
		"ckptneloc":     "Ckpt_NE,Loc",
		"ReCkpt_NE,Loc": "ReCkpt_NE,Loc",
		"TierCkpt_NE":   "TierCkpt_NE",
		"diffckptne":    "DiffCkpt_NE",
		"autockpte":     "AutoCkpt_E",
	}
	for in, want := range cases {
		spec, err := parseSpec(in)
		if err != nil {
			t.Errorf("parseSpec(%q): %v", in, err)
			continue
		}
		if got := spec.String(); got != want {
			t.Errorf("parseSpec(%q) renders %q, want %q", in, got, want)
		}
	}
}

// TestParseSpecRejectsGarbage: malformed names fail rather than silently
// selecting a default configuration.
func TestParseSpecRejectsGarbage(t *testing.T) {
	for _, in := range []string{"", "ckpt", "reckpt_x", "megackpt_ne", "ckpt_ne,remote"} {
		if _, err := parseSpec(in); err == nil {
			t.Errorf("parseSpec(%q) accepted", in)
		}
	}
}

// TestStrategyFlagParsesEveryKind: the -strategy flag accepts every kind
// name and the documented aliases, and rejects unknowns — the CLI half of
// the -list-strategies contract.
func TestStrategyFlagParsesEveryKind(t *testing.T) {
	for _, kind := range ckpt.Kinds() {
		got, err := ckpt.ParseKind(kind.String())
		if err != nil {
			t.Errorf("ParseKind(%q): %v", kind, err)
		} else if got != kind {
			t.Errorf("ParseKind(%q) = %v", kind, got)
		}
	}
	for alias, want := range map[string]ckpt.Kind{
		"diff": ckpt.KindDifferential,
		"tier": ckpt.KindTiered,
	} {
		if got, err := ckpt.ParseKind(alias); err != nil || got != want {
			t.Errorf("ParseKind(%q) = %v, %v; want %v", alias, got, err, want)
		}
	}
	if _, err := ckpt.ParseKind("quantum"); err == nil {
		t.Error("ParseKind accepted an unknown strategy")
	}
	for _, kind := range ckpt.Kinds() {
		if kind.Describe() == "unknown" || kind.Describe() == "" {
			t.Errorf("strategy %v lacks a description", kind)
		}
	}
}

// FuzzParseSpec: parseSpec never panics, and every name it accepts
// round-trips — the spec's rendered name parses back to the same spec.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{"NoCkpt", "ReCkpt_E", "Ckpt_NE,Loc", "reckpteloc", "AutoCkpt_NE", "tierckpt_e"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, name string) {
		spec, err := parseSpec(name)
		if err != nil {
			return
		}
		back, err := parseSpec(spec.String())
		if err != nil {
			t.Fatalf("parseSpec(%q) = %+v renders %q, which does not parse: %v", name, spec, spec.String(), err)
		}
		if back != spec {
			t.Fatalf("parseSpec(%q) = %+v renders %q, which parses to %+v", name, spec, spec.String(), back)
		}
	})
}
