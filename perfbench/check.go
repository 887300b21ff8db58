package main

import (
	"encoding/csv"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"carriersense/internal/engine"
)

// The output checks. Every timed pass must reproduce its reference
// pass byte for byte (the determinism contract: parallelism, fleet
// shape and cache state never change a result), and each reference
// pass is checked against what the paper and the sampling targets
// promise, with the tolerances the experiments tests already use.

// paperTable1 is §3.2.5's fixed-threshold table (rows R_max 20/40/120,
// columns D 20/55/120) and paperThresholds the per-R_max optimized
// thresholds of the second table.
var (
	paperTable1     = [][]float64{{0.96, 0.88, 0.96}, {0.96, 0.87, 0.96}, {0.89, 0.83, 0.92}}
	paperThresholds = map[string]float64{"t2_dopt_rmax20": 40, "t2_dopt_rmax40": 55, "t2_dopt_rmax120": 60}
)

const (
	table1Tol    = 0.04 // |cell − paper|, TestTable1MatchesPaper
	table1MinEff = 0.80 // the headline: every cell within ~15% of optimal
	thresholdTol = 0.15 // relative, TestTable2ThresholdsMatchPaper
	shortCSFrac  = 0.75 // TestTestbedExperimentShape
	longCSFrac   = 0.70
)

// checkTable1 compares reproduced T1 cells with the paper's.
func checkTable1(cells, paper [][]float64) error {
	if len(cells) != len(paper) {
		return fmt.Errorf("T1 has %d rows, paper %d", len(cells), len(paper))
	}
	for i := range paper {
		if len(cells[i]) != len(paper[i]) {
			return fmt.Errorf("T1 row %d has %d cells, paper %d", i, len(cells[i]), len(paper[i]))
		}
		for j, want := range paper[i] {
			if got := cells[i][j]; math.Abs(got-want) > table1Tol || got < table1MinEff {
				return fmt.Errorf("T1 cell (%d,%d) = %.2f, paper %.2f (tolerance ±%.2f, floor %.2f)", i, j, got, want, table1Tol, table1MinEff)
			}
		}
	}
	return nil
}

// checkThresholds compares T2's optimized thresholds with the paper's.
func checkThresholds(metrics map[string]float64, paper map[string]float64) error {
	for key, want := range paper {
		got, ok := metrics[key]
		if !ok {
			return fmt.Errorf("tables result lacks metric %s", key)
		}
		if math.Abs(got-want)/want > thresholdTol {
			return fmt.Errorf("%s = %.1f, paper %.0f (tolerance ±%.0f%%)", key, got, want, 100*thresholdTol)
		}
	}
	return nil
}

// checkTestbed holds the testbed's carrier-sense fractions to the
// paper's qualitative claims.
func checkTestbed(metrics map[string]float64) error {
	for key, floor := range map[string]float64{"short-range_cs_frac": shortCSFrac, "long-range_cs_frac": longCSFrac} {
		got, ok := metrics[key]
		if !ok {
			return fmt.Errorf("testbed result lacks metric %s", key)
		}
		if got < floor {
			return fmt.Errorf("testbed %s = %.3f, below the paper-backed floor %.2f", key, got, floor)
		}
	}
	return nil
}

// ledgerRow is one driven point of a sampling.csv artifact.
type ledgerRow struct {
	kernel, sampler string
	relErr, target  float64
	converged       bool
}

// checkConverged requires every point the driver reports converged to
// carry an achieved relative error at or below its target.
func checkConverged(rows []ledgerRow) error {
	for i, r := range rows {
		if r.converged && !(r.relErr <= r.target) {
			return fmt.Errorf("sampling point %d (%s/%s) reports converged at relerr %.6g above target %g", i, r.kernel, r.sampler, r.relErr, r.target)
		}
	}
	return nil
}

// checkReference runs the content checks that apply to a reference
// pass's results and artifacts (under dir).
func checkReference(steps []step, results [][]*engine.Result, dir string) error {
	for i, st := range steps {
		for _, res := range results[i] {
			var err error
			switch {
			case st.scenario == "tables" && st.scale == "bench" && st.relErr == 0 && len(st.sets) == 0:
				var cells [][]float64
				if cells, err = readTable(dir, i, "t1.csv"); err == nil {
					err = checkTable1(cells, paperTable1)
				}
				if err == nil {
					err = checkThresholds(res.Metrics, paperThresholds)
				}
			case st.scenario == "testbed" && st.scale == "bench":
				err = checkTestbed(res.Metrics)
			}
			if err == nil && st.relErr > 0 {
				var rows []ledgerRow
				if rows, err = readLedger(dir, i); err == nil {
					err = checkConverged(rows)
				}
			}
			if err != nil {
				return fmt.Errorf("%s: %w", st, err)
			}
		}
	}
	return nil
}

// stepDir is where step i of a reference pass writes its artifacts.
func stepDir(dir string, i int) string { return filepath.Join(dir, strconv.Itoa(i)) }

// artifact finds the one file called name in step i's run directory.
func artifact(dir string, i int, name string) (string, error) {
	matches, err := filepath.Glob(filepath.Join(stepDir(dir, i), "*", name))
	if err != nil {
		return "", err
	}
	if len(matches) != 1 {
		return "", fmt.Errorf("want one %s artifact under %s, found %d", name, stepDir(dir, i), len(matches))
	}
	return matches[0], nil
}

func readCSV(dir string, i int, name string) ([][]string, error) {
	path, err := artifact(dir, i, name)
	if err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return csv.NewReader(f).ReadAll()
}

// readTable reads an efficiency table artifact ("96%" cells after the
// row label) as fractions.
func readTable(dir string, i int, name string) ([][]float64, error) {
	recs, err := readCSV(dir, i, name)
	if err != nil {
		return nil, err
	}
	var cells [][]float64
	for _, rec := range recs[1:] {
		var row []float64
		for _, field := range rec[1:] {
			v, err := strconv.ParseFloat(strings.TrimSuffix(field, "%"), 64)
			if err != nil {
				return nil, fmt.Errorf("%s: cell %q: %w", name, field, err)
			}
			row = append(row, v/100)
		}
		cells = append(cells, row)
	}
	return cells, nil
}

// readLedger reads step i's sampling.csv.
func readLedger(dir string, i int) ([]ledgerRow, error) {
	recs, err := readCSV(dir, i, "sampling.csv")
	if err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("empty sampling.csv")
	}
	col := map[string]int{}
	for j, h := range recs[0] {
		col[h] = j
	}
	for _, h := range []string{"kernel", "sampler", "rel_err", "target", "converged"} {
		if _, ok := col[h]; !ok {
			return nil, fmt.Errorf("sampling.csv lacks column %q", h)
		}
	}
	rows := make([]ledgerRow, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		r := ledgerRow{kernel: rec[col["kernel"]], sampler: rec[col["sampler"]]}
		var errRel, errTarget error
		r.relErr, errRel = strconv.ParseFloat(rec[col["rel_err"]], 64)
		r.target, errTarget = strconv.ParseFloat(rec[col["target"]], 64)
		if err := errors.Join(errRel, errTarget); err != nil {
			return nil, fmt.Errorf("sampling.csv: %w", err)
		}
		r.converged = rec[col["converged"]] == "true"
		rows = append(rows, r)
	}
	return rows, nil
}
