package mobiledist_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameOnlyExistingMakeTargetsAndBenchFiles keeps the documents that
// tell people what to run in step with the program: every `make <target>`
// they mention must be in the Makefile's .PHONY list, every BENCH_*.json
// they cite must be a file in the tree, and every MOBILEDIST_* environment
// variable they name must be read by cmd/mobilenode (appear there as a
// string literal).
func TestDocsNameOnlyExistingMakeTargetsAndBenchFiles(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	sources, err := filepath.Glob("cmd/mobilenode/*.go")
	if err != nil {
		t.Fatal(err)
	}
	var mobilenode strings.Builder
	for _, name := range sources {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		mobilenode.Write(src)
	}
	phony := regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindSubmatch(makefile)
	if phony == nil {
		t.Fatal("Makefile has no .PHONY line")
	}
	targets := map[string]bool{}
	for _, name := range strings.Fields(string(phony[1])) {
		targets[name] = true
	}

	// A target is named either in backticks anywhere, or at the start of a
	// command line (inside a Markdown fence, or a workflow `run:` step);
	// prose such as "structures make that practical" is neither.
	quoted := regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	command := regexp.MustCompile(`^\s*(?:run: )?make ([a-z][a-z0-9-]*)`)
	benchFile := regexp.MustCompile(`BENCH_[A-Za-z0-9_.-]*\.json`)
	envVar := regexp.MustCompile(`MOBILEDIST_[A-Z_]+`)

	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".github/workflows/ci.yml", ".claude/skills/verify/SKILL.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Error(err)
			continue
		}
		inCode := strings.HasSuffix(doc, ".yml")
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inCode = !inCode
				continue
			}
			refs := quoted.FindAllStringSubmatch(line, -1)
			if inCode {
				refs = append(refs, command.FindAllStringSubmatch(line, -1)...)
			}
			for _, ref := range refs {
				if !targets[ref[1]] {
					t.Errorf("%s:%d: `make %s` is not a Makefile target", doc, i+1, ref[1])
				}
			}
			for _, name := range benchFile.FindAllString(line, -1) {
				if _, err := os.Stat(name); err != nil {
					t.Errorf("%s:%d: %s is not in the tree", doc, i+1, name)
				}
			}
			for _, name := range envVar.FindAllString(line, -1) {
				if !strings.Contains(mobilenode.String(), `"`+name+`"`) {
					t.Errorf("%s:%d: %s is not read by cmd/mobilenode", doc, i+1, name)
				}
			}
		}
	}
}
