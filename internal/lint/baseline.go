package lint

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// BaselineName is the conventional baseline filename at the module
// root. CI runs rampvet against it: findings recorded there are
// grandfathered (tracked for burn-down but non-fatal); anything new
// fails the lane.
const BaselineName = ".rampvet-baseline"

// A Baseline is a multiset of grandfathered findings. Entries are keyed
// by (module-relative file, analyzer, message) — deliberately *not* by
// line number, so unrelated edits that shift a grandfathered finding up
// or down the file don't resurrect it. The multiset semantics mean a
// file with two identical grandfathered findings absorbs exactly two;
// a third identical one is new.
type Baseline struct {
	counts map[baselineKey]int
}

type baselineKey struct {
	file     string // module-relative, slash-separated
	analyzer string
	message  string
}

// diagKey relativizes and normalizes one diagnostic.
func diagKey(root string, d Diagnostic) baselineKey {
	file := d.Pos.Filename
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		file = rel
	}
	return baselineKey{
		file:     filepath.ToSlash(file),
		analyzer: d.Analyzer,
		message:  d.Message,
	}
}

// Filter splits diags into fresh findings (not covered by the
// baseline) and the count of grandfathered ones it absorbed. Absorption
// is per-occurrence: each baseline entry covers at most its recorded
// count.
func (b *Baseline) Filter(root string, diags []Diagnostic) (fresh []Diagnostic, grandfathered int) {
	remaining := make(map[baselineKey]int, len(b.counts))
	for k, c := range b.counts {
		remaining[k] = c
	}
	for _, d := range diags {
		k := diagKey(root, d)
		if remaining[k] > 0 {
			remaining[k]--
			grandfathered++
			continue
		}
		fresh = append(fresh, d)
	}
	return fresh, grandfathered
}

// baselineSep separates the key fields on a baseline line. Tab cannot
// appear in file paths or analyzer names, and messages have no reason
// to contain one.
const baselineSep = "\t"

// LoadBaseline reads a baseline file. A missing file is an empty
// baseline, so a repo without one simply has nothing grandfathered.
func LoadBaseline(path string) (*Baseline, error) {
	b := &Baseline{counts: map[baselineKey]int{}}
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return b, nil
		}
		return nil, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1024*1024)
	lineno := 0
	for sc.Scan() {
		lineno++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		parts := strings.SplitN(line, baselineSep, 3)
		if len(parts) != 3 {
			return nil, fmt.Errorf("lint: %s:%d: malformed baseline line (want file<TAB>analyzer<TAB>message)", path, lineno)
		}
		b.counts[baselineKey{file: parts[0], analyzer: parts[1], message: parts[2]}]++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return b, nil
}

// WriteBaseline writes the diagnostics as a baseline file, sorted for
// stable diffs, with a header documenting the contract.
func WriteBaseline(path, root string, diags []Diagnostic) error {
	var lines []string
	for _, d := range diags {
		k := diagKey(root, d)
		lines = append(lines, k.file+baselineSep+k.analyzer+baselineSep+k.message)
	}
	sort.Strings(lines)
	var sb strings.Builder
	sb.WriteString("# rampvet baseline — grandfathered findings, one per line:\n")
	sb.WriteString("#   file<TAB>analyzer<TAB>message   (line numbers omitted on purpose)\n")
	sb.WriteString("# CI fails on any finding not recorded here. Burn entries down by\n")
	sb.WriteString("# fixing the code and regenerating with `rampvet -write-baseline ./...`.\n")
	for _, l := range lines {
		sb.WriteString(l)
		sb.WriteString("\n")
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// AnalyzerCount is one row of a per-analyzer finding tally.
type AnalyzerCount struct {
	Name  string
	Count int
}

// Stats counts diagnostics per analyzer, returning one row for every
// analyzer in the given suite — including zero counts, so burn-down
// logs show the full picture — in suite order.
func Stats(analyzers []*Analyzer, diags []Diagnostic) []AnalyzerCount {
	counts := map[string]int{}
	for _, d := range diags {
		counts[d.Analyzer]++
	}
	out := make([]AnalyzerCount, 0, len(analyzers))
	for _, a := range analyzers {
		out = append(out, AnalyzerCount{a.Name, counts[a.Name]})
	}
	return out
}
