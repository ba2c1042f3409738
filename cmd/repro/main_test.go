package main

import (
	"reflect"
	"strings"
	"testing"
)

// TestFigureRegistry pins the registry's derived views: the -fig help
// names every selector, -all runs the figures in their long-standing
// order, every selector resolves to its own entry, and an unknown
// selector is an error rather than a silent skip.
func TestFigureRegistry(t *testing.T) {
	help := map[string]bool{}
	for _, s := range strings.Split(figHelp(), ", ") {
		help[s] = true
	}
	for _, f := range figures {
		for _, s := range f.sel {
			if !help[s] {
				t.Errorf("selector %q missing from the -fig help %q", s, figHelp())
			}
			got, err := lookupFig(s)
			if err != nil || got.label != f.label {
				t.Errorf("lookupFig(%q) = %q, %v; want %q", s, got.label, err, f.label)
			}
		}
	}

	wantAll := []string{"1", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "17",
		"baseline", "timescale", "scale", "trajectory", "contention", "adaptive", "scenarios", "fleetscenarios"}
	if got := allFigs(); !reflect.DeepEqual(got, wantAll) {
		t.Errorf("-all order %v, want %v", got, wantAll)
	}

	for _, bad := range []string{"", "4", "nope", "scale "} {
		if _, err := lookupFig(bad); err == nil || !strings.Contains(err.Error(), "unknown figure") {
			t.Errorf("lookupFig(%q) err = %v, want an unknown-figure error", bad, err)
		}
	}
}
