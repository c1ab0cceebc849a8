package milpjoin_test

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestDocsResolve holds DESIGN.md and README.md to the code: every
// backticked repository path exists, every backticked identifier of one of
// this module's packages is declared there, and every ROADMAP item that
// DESIGN.md, README.md or EXPERIMENTS.md cites is open. A rename, a
// deletion or a pruned item therefore fails here, naming file and line.
func TestDocsResolve(t *testing.T) {
	r := newDocResolver(t)
	for _, name := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		text := readFile(t, name)
		problems := r.roadmapProblems(name, text)
		// EXPERIMENTS.md records past runs under the names of their day;
		// only its item citations must stay current.
		if name != "EXPERIMENTS.md" {
			problems = append(problems, r.spanProblems(name, text)...)
		}
		for _, p := range problems {
			t.Error(p)
		}
	}
}

// TestDocResolverCatches holds the resolver itself to what it must and must
// not report, on inline Markdown.
func TestDocResolverCatches(t *testing.T) {
	r := newDocResolver(t)
	for _, tc := range []struct {
		name, text string
		want       []string // prefixes of the problems, in order; nil: none
	}{
		{"renamed identifier", "one\nthe bushy DP (`dp.OptimizeConv`)", []string{"doc.md:2: `dp.OptimizeConv`"}},
		{"missing member", "`core.Options.CostParams`", []string{"doc.md:1: `core.Options.CostParams`"}},
		{"missing member in a list", "`decomp.Options.{Spec, MILP}`", []string{"doc.md:1: `decomp.Options.MILP`"}},
		{"missing path", "\n\n`internal/solver` went", []string{"doc.md:3: `internal/solver`"}},
		{"bare file", "`card.go`", []string{"doc.md:1: `card.go`"}},
		{"path in a list", "`internal/{sparse,solver}`", []string{"doc.md:1: `internal/solver`"}},
		{"pruned item", "as in\n(ROADMAP 22)", []string{"doc.md:2: ROADMAP item 22"}},
		{"pruned item over a line break", "(ROADMAP\nitem 21)", []string{"doc.md:1: ROADMAP item 21"}},
		{"stale metric", "`cluster.hop_ms`", []string{"doc.md:1: `cluster.hop_ms`"}},
		{"stdlib", "a `sync.Pool`, `context.WithDeadline`, `slog.Default()`, `runtime/pprof`", nil},
		{"generic", "`cache.Memo[*resolved]`", nil},
		{"unqualified", "`Options.Budget`, `canonicalResult.serve`, `OptimizeConv`", nil},
		{"main package", "`examples/server`, `examples/server/main.go`, `server.Config.Cache`", nil},
		{"member list, wildcard, embedded field", "`decomp.Options.{Spec, SeamFrac}`, `cost.Params.*`, `bb.pairBasis.Basis`", nil},
		{"metric", "`cluster.forward_share`, `persist.replay_ms`", nil},
		{"open item", "ROADMAP item 1, ROADMAP 5(c)", nil},
		{"fenced block", "```\n`internal/solver` ROADMAP 22\n```", nil},
		{"not a path", "`POST /v1/optimize`, `/healthz`, `Lp/Li/Lx`", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := append(r.roadmapProblems("doc.md", tc.text), r.spanProblems("doc.md", tc.text)...)
			if len(got) != len(tc.want) {
				t.Fatalf("got %d problems %q, want %d", len(got), got, len(tc.want))
			}
			for i, w := range tc.want {
				if !strings.HasPrefix(got[i], w) {
					t.Errorf("problem %d = %q, want prefix %q", i, got[i], w)
				}
			}
		})
	}
}

// docResolver checks the names a Markdown document cites against the
// package index, the repository's files, BENCHMARK.json's metrics and
// ROADMAP.md's open items.
type docResolver struct {
	ix      *repoIndex
	metrics map[string]bool
	open    map[string]bool // open ROADMAP item numbers
}

func newDocResolver(t *testing.T) *docResolver {
	t.Helper()
	r := &docResolver{ix: packageIndex(t), metrics: map[string]bool{}, open: openItems(t)}
	var bench struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal([]byte(readFile(t, "BENCHMARK.json")), &bench); err != nil {
		t.Fatal(err)
	}
	for _, m := range append(bench.EndToEnd, bench.PerLayer...) {
		r.metrics[m.Name] = true
	}
	return r
}

// openItems returns the numbers of ROADMAP.md's open items.
func openItems(t *testing.T) map[string]bool {
	t.Helper()
	open := map[string]bool{}
	in := false
	item := regexp.MustCompile(`^(\d+)\. \*\*`)
	for _, line := range strings.Split(readFile(t, "ROADMAP.md"), "\n") {
		if strings.HasPrefix(line, "## ") {
			in = line == "## Open items"
		} else if m := item.FindStringSubmatch(line); in && m != nil {
			open[m[1]] = true
		}
	}
	if len(open) == 0 {
		t.Fatal(`ROADMAP.md has no numbered item under "## Open items"`)
	}
	return open
}

var (
	fence       = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	roadmapCite = regexp.MustCompile(`ROADMAP\s+(?:items?\s+)?(\d+)`)
	// qualified is pkg.Name or pkg.Name.Member, the member possibly *.
	qualified = regexp.MustCompile(`^([a-z]\w*)\.(\w+)(?:\.(\w+|\*))?$`)
	fileExt   = regexp.MustCompile(`\.(go|md|json|jsonl|sh|mod|yml)$`)
)

// prose returns text with its fenced code blocks blanked, lines kept.
func prose(text string) string {
	return fence.ReplaceAllStringFunc(text, func(b string) string {
		return strings.Repeat("\n", strings.Count(b, "\n"))
	})
}

// roadmapProblems reports every "ROADMAP [item] N" whose N is not an open
// item.
func (r *docResolver) roadmapProblems(name, text string) []string {
	text = prose(text)
	var out []string
	for _, m := range roadmapCite.FindAllStringSubmatchIndex(text, -1) {
		if n := text[m[2]:m[3]]; !r.open[n] {
			out = append(out, fmt.Sprintf("%s:%d: ROADMAP item %s is not an open item of ROADMAP.md", name, lineOf(text, m[0]), n))
		}
	}
	return out
}

// spanProblems reports every code span that is a repository path that does
// not exist, or an identifier of one of this module's packages that the
// package does not declare. Paths count from the repository root; other
// spans are skipped.
func (r *docResolver) spanProblems(name, text string) []string {
	text = prose(text)
	var out []string
	for _, m := range codeSpan.FindAllStringSubmatchIndex(text, -1) {
		span := strings.Join(strings.Fields(text[m[2]:m[3]]), " ")
		for _, s := range expand(span) {
			if why := r.unresolved(s); why != "" {
				out = append(out, fmt.Sprintf("%s:%d: `%s` %s", name, lineOf(text, m[0]), s, why))
			}
		}
	}
	return out
}

// unresolved returns why span names nothing, or "" when it resolves or is
// not a name the resolver checks.
func (r *docResolver) unresolved(span string) string {
	if isPath(span) {
		if _, err := os.Stat(strings.TrimSuffix(span, "/")); err != nil {
			return "is not a path from the repository root"
		}
		return ""
	}
	span = strings.TrimSuffix(span, "()")
	if i := strings.IndexByte(span, '['); i > 0 && strings.HasSuffix(span, "]") {
		span = span[:i] // a generic instantiation
	}
	m := qualified.FindStringSubmatch(span)
	if m == nil || r.ix.decls[m[1]] == nil || r.metrics[span] {
		return ""
	}
	name := m[2]
	if m[3] != "" && m[3] != "*" {
		name += "." + m[3]
	}
	if !r.ix.decls[m[1]][name] {
		return fmt.Sprintf("is declared in no non-test file of package %s", m[1])
	}
	return ""
}

// isPath reports whether span is meant as a repository path: a file name
// with a known extension, or a slash-separated path whose first element is
// at the repository root.
func isPath(span string) bool {
	if strings.ContainsAny(span, " :=\"'") {
		return false
	}
	if fileExt.MatchString(span) {
		return true
	}
	first, _, ok := strings.Cut(span, "/")
	if !ok || first == "" {
		return false
	}
	_, err := os.Stat(first)
	return err == nil
}

// expand spells out one {A, B} list in span: a.{B, C} is a.B and a.C.
func expand(span string) []string {
	open, end := strings.IndexByte(span, '{'), strings.IndexByte(span, '}')
	if open < 0 || end < open {
		return []string{span}
	}
	var out []string
	for _, alt := range strings.Split(span[open+1:end], ",") {
		out = append(out, span[:open]+strings.TrimSpace(alt)+span[end+1:])
	}
	return out
}

func lineOf(text string, offset int) int {
	return 1 + strings.Count(text[:offset], "\n")
}
