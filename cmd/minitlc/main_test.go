package main

import (
	"context"
	"strings"
	"testing"

	"repro/internal/cliobs"
)

// TestRunRejectsMeaninglessBounds: spec bounds under which no meaningful
// state space exists are rejected before anything is explored, instead of
// reporting a one-state run as a pass.
func TestRunRejectsMeaninglessBounds(t *testing.T) {
	base := specConfig{specName: "raftmongo-v1", nodes: 3, maxTerm: 1, maxLog: 1, actors: 2}
	for _, tc := range []struct {
		name string
		edit func(*specConfig)
		want string
	}{
		{"zero nodes", func(c *specConfig) { c.nodes = 0 }, "-nodes 0"},
		{"negative nodes", func(c *specConfig) { c.nodes = -2 }, "-nodes -2"},
		{"zero actors", func(c *specConfig) { c.specName, c.actors = "locking", 0 }, "-actors 0"},
		{"negative max-term", func(c *specConfig) { c.maxTerm = -1 }, "-max-term -1"},
		{"negative max-log", func(c *specConfig) { c.maxLog = -1 }, "-max-log -1"},
	} {
		cfg := base
		tc.edit(&cfg)
		err := run(context.Background(), cfg, cliobs.RunFlags{Workers: 1}, "", false, ckConfig{})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: run = %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
	cfg := base
	cfg.specName = "locking"
	if err := run(context.Background(), cfg, cliobs.RunFlags{Workers: 1}, "", false, ckConfig{}); err != nil {
		t.Fatalf("valid bounds: run = %v", err)
	}
}
