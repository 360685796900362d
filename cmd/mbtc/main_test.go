package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cliobs"
)

// TestRunRejectsNegativeSteps: a negative fuzzer step count is an error,
// not an empty trace that passes the check.
func TestRunRejectsNegativeSteps(t *testing.T) {
	for _, steps := range []int{-1, -5} {
		err := run(context.Background(), "", "v2", true, steps, 7, false, false, cliobs.RunFlags{Workers: 1})
		if err == nil || !strings.Contains(err.Error(), "-steps") {
			t.Errorf("steps=%d: run = %v, want an error naming -steps", steps, err)
		}
	}
	if err := run(context.Background(), "", "v2", true, 20, 7, true, false, cliobs.RunFlags{Workers: 1}); err != nil {
		t.Fatalf("valid steps: run = %v", err)
	}
}
