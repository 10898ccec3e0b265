package main

import (
	"regexp"
	"strings"
	"testing"
)

func TestRunEachAlgorithm(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want string
	}{
		{
			name: "l1",
			args: []string{"-alg", "l1", "-m", "3", "-n", "5", "-requests", "1"},
			want: "L1: 5 grants",
		},
		{
			name: "l2 with mobility and churn",
			args: []string{"-alg", "l2", "-m", "4", "-n", "8", "-requests", "1", "-moves", "1", "-churn", "1"},
			want: "L2:",
		},
		{
			name: "r1",
			args: []string{"-alg", "r1", "-m", "3", "-n", "6", "-requests", "1", "-traversals", "3"},
			want: "R1:",
		},
		{
			name: "r2 counter",
			args: []string{"-alg", "r2c", "-m", "4", "-n", "8", "-requests", "1", "-traversals", "3"},
			want: "R2':",
		},
		{
			name: "r2 list",
			args: []string{"-alg", "r2l", "-m", "4", "-n", "8", "-requests", "1", "-traversals", "3"},
			want: "R2'':",
		},
		{
			name: "group pure search",
			args: []string{"-alg", "group-ps", "-m", "4", "-n", "8", "-group", "4", "-messages", "3"},
			want: "group/pure-search: 3 group messages sent, 9 member deliveries",
		},
		{
			name: "group location view",
			args: []string{"-alg", "group-lv", "-m", "4", "-n", "8", "-group", "4", "-messages", "3", "-moves", "1"},
			want: "group/location-view:",
		},
		{
			name: "multicast",
			args: []string{"-alg", "multicast", "-m", "4", "-n", "8", "-group", "4", "-messages", "3", "-moves", "2"},
			want: "multicast: 3 items, 12 deliveries",
		},
		{
			name: "proxy home",
			args: []string{"-alg", "proxy-home", "-m", "3", "-n", "4", "-requests", "1", "-moves", "2"},
			want: "proxy(home): 4 grants",
		},
		{
			name: "proxy local",
			args: []string{"-alg", "proxy-local", "-m", "3", "-n", "4", "-requests", "1", "-moves", "2"},
			want: "proxy(local): 4 grants",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			var out strings.Builder
			if err := run(tt.args, &out); err != nil {
				t.Fatalf("run(%v): %v", tt.args, err)
			}
			if !strings.Contains(out.String(), tt.want) {
				t.Errorf("output missing %q:\n%s", tt.want, out.String())
			}
			if !strings.Contains(out.String(), "total cost") {
				t.Errorf("output missing cost report:\n%s", out.String())
			}
		})
	}
}

func TestRunTraceFlag(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alg", "l2", "-m", "3", "-n", "4", "-moves", "1", "-trace"}, &out); err != nil {
		t.Fatalf("run: %v", err)
	}
	for _, kind := range []string{"leave", "join", "search"} {
		if !regexp.MustCompile(`(?m)^trace \d+ ` + kind + ` `).MatchString(out.String()) {
			t.Errorf("trace output has no %s event:\n%s", kind, out.String())
		}
	}
	if strings.Contains(out.String(), " transmit ") {
		t.Errorf("-trace printed transport events, want only mobility/search/failure kinds:\n%s", out.String())
	}
}

func TestRunRejectsBadInput(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-alg", "nonsense"}, &out); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := run([]string{"-alg", "group-lv", "-n", "4", "-group", "10"}, &out); err == nil {
		t.Error("oversized group accepted")
	}
	if err := run([]string{"-not-a-flag"}, &out); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	runOnce := func() string {
		var out strings.Builder
		if err := run([]string{"-alg", "l2", "-m", "4", "-n", "8", "-requests", "2", "-moves", "2", "-seed", "77"}, &out); err != nil {
			t.Fatalf("run: %v", err)
		}
		return out.String()
	}
	if a, b := runOnce(), runOnce(); a != b {
		t.Error("identical seeds produced different reports")
	}
}
