package opd

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestDocsNameMakeTargets fails when README.md, DESIGN.md or a
// skills/*/SKILL.md note (the build-and-run notes) names a
// `make <target>` that the Makefile does not define: a doc that still
// quotes a retired target sends its reader to a command that no longer
// exists. Only code (fenced blocks and backtick spans) counts, so prose
// such as "make the window" does not.
func TestDocsNameMakeTargets(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9][A-Za-z0-9_-]*):`).FindAllSubmatch(mk, -1) {
		targets[string(m[1])] = true
	}
	if !targets["check"] {
		t.Fatalf("found no check target in the Makefile; targets read: %v", targets)
	}

	code := regexp.MustCompile("(?s)```.*?```|`[^`]+`")
	makeCmd := regexp.MustCompile(`\bmake\s+([a-z][a-z0-9-]*)`)
	notes, err := filepath.Glob(".*/skills/*/SKILL.md")
	if err != nil || len(notes) == 0 {
		t.Fatalf("found no skills/*/SKILL.md notes: %v", err)
	}
	for _, doc := range append([]string{"README.md", "DESIGN.md"}, notes...) {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, span := range code.FindAllIndex(data, -1) {
			for _, m := range makeCmd.FindAllSubmatchIndex(data[span[0]:span[1]], -1) {
				name := string(data[span[0]+m[2] : span[0]+m[3]])
				if !targets[name] {
					line := 1 + bytes.Count(data[:span[0]+m[0]], []byte("\n"))
					t.Errorf("%s:%d names `make %s`, which the Makefile does not define", doc, line, name)
				}
			}
		}
	}
}
