package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// The output checks. They use nothing of the program under test: a
// textbook edit distance, the benchmark's own block key, and the
// census of the generated data.

// similarity is the normalized edit-distance similarity the match rule
// is defined by: 1 − distance ÷ longer length.
func similarity(a, b string) float64 {
	longest := max(len(a), len(b))
	if longest == 0 {
		return 1
	}
	return 1 - float64(editDistance(a, b))/float64(longest)
}

// editDistance is the two-row Wagner–Fischer recurrence over bytes
// (generated titles are ASCII).
func editDistance(a, b string) int {
	prev := make([]int, len(b)+1)
	cur := make([]int, len(b)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= len(b); j++ {
			cost := 1
			if a[i-1] == b[j-1] {
				cost = 0
			}
			cur[j] = min(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(b)]
}

// report is ermatch's summary line, "comparisons=N matches=M wall=D".
type report struct{ comparisons, matches int64 }

// parseReport finds the summary line in ermatch's standard output.
func parseReport(stdout string) (report, error) {
	for _, line := range strings.Split(stdout, "\n") {
		if !strings.HasPrefix(line, "comparisons=") {
			continue
		}
		var r report
		if _, err := fmt.Sscanf(line, "comparisons=%d matches=%d", &r.comparisons, &r.matches); err != nil {
			return report{}, fmt.Errorf("report line %q: want comparisons=N matches=M: %w", line, err)
		}
		return r, nil
	}
	return report{}, fmt.Errorf("no comparisons= report line in output %q", stdout)
}

// checkOutput verifies one run's report and match file against the
// dataset and returns the digest of the sorted match rows. The four
// checks: comparisons equal the census; every row is a true match in
// one block; every planted duplicate that must match is present; the
// digest equals want (skipped when want is empty).
func checkOutput(d *dataset, rep report, matchCSV []byte, want string) (string, error) {
	if rep.comparisons != d.census.pairs {
		return "", fmt.Errorf("comparisons=%d, census says %d", rep.comparisons, d.census.pairs)
	}
	sc := bufio.NewScanner(bytes.NewReader(matchCSV))
	if !sc.Scan() || sc.Text() != "a,b,similarity" {
		return "", fmt.Errorf("match file header %q, want a,b,similarity", sc.Text())
	}
	var rows []string
	found := make(map[planted]bool)
	for sc.Scan() {
		row := sc.Text()
		f := strings.Split(row, ",")
		if len(f) != 3 {
			return "", fmt.Errorf("match row %q: want 3 fields", row)
		}
		ta, okA := d.titles[f[0]]
		tb, okB := d.titles[f[1]]
		if !okA || !okB || f[0] >= f[1] {
			return "", fmt.Errorf("match row %q: unknown or unordered ids", row)
		}
		if blockKey(ta) != blockKey(tb) {
			return "", fmt.Errorf("match row %q: %q and %q are in different blocks", row, ta, tb)
		}
		sim, err := strconv.ParseFloat(f[2], 64)
		if err != nil {
			return "", fmt.Errorf("match row %q: %w", row, err)
		}
		if truth := similarity(ta, tb); truth < threshold || sim != truth {
			return "", fmt.Errorf("match row %q: true similarity of %q and %q is %v", row, ta, tb, truth)
		}
		rows = append(rows, row)
		// Ids sort "d…" before "e…", so a planted pair reads (dup, base).
		found[planted{base: f[1], dup: f[0]}] = true
	}
	if err := sc.Err(); err != nil {
		return "", fmt.Errorf("match file: %w", err)
	}
	if int64(len(rows)) != rep.matches {
		return "", fmt.Errorf("match file has %d rows, report says matches=%d", len(rows), rep.matches)
	}
	for _, p := range d.census.mustMatch {
		if !found[p] {
			return "", fmt.Errorf("planted duplicate %s of %s (similarity %v) is missing",
				p.dup, p.base, similarity(d.titles[p.base], d.titles[p.dup]))
		}
	}
	sort.Strings(rows)
	h := sha256.New()
	for _, row := range rows {
		h.Write([]byte(row))
		h.Write([]byte{'\n'})
	}
	digest := hex.EncodeToString(h.Sum(nil))
	if want != "" && digest != want {
		return digest, fmt.Errorf("match digest %s differs from the dataset's reference %s", digest[:12], want[:12])
	}
	return digest, nil
}
