package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cliobs"
)

// TestRunRejectsMeaninglessBounds: a negative step count or an empty
// replica set is an error, not a run with nothing in it.
func TestRunRejectsMeaninglessBounds(t *testing.T) {
	for _, tc := range []struct {
		steps, nodes int
		want         string
	}{
		{-1, 3, "-steps -1"},
		{10, 0, "-nodes 0"},
		{10, -3, "-nodes -3"},
	} {
		err := run(context.Background(), tc.steps, 7, tc.nodes, "", false, false, true, "v2", cliobs.RunFlags{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("steps=%d nodes=%d: run = %v, want an error naming %q", tc.steps, tc.nodes, err, tc.want)
		}
	}
	if err := run(context.Background(), 20, 7, 3, "", false, true, true, "v2", cliobs.RunFlags{Workers: 1}); err != nil {
		t.Fatalf("valid bounds: run = %v", err)
	}
}
