package main

import (
	"fmt"
	"math"
)

// maxSumLP solves max Σ x_j subject to Σ_{j∈rows[i]} x_j ≤ rhs[i], x ≥ 0,
// with every rhs[i] ≥ 0 — the shape of the path-form TE LP (Eq. 2), whose
// constraint coefficients are all 1. The slack basis is feasible, so a
// dense tableau primal simplex needs no phase 1. Dantzig pricing switches
// to Bland's rule after a run of degenerate pivots, so it cannot cycle.
//
// It shares no code with the program's LP cores on purpose: the benchmark
// checks the program's TE re-solves against it.
func maxSumLP(nVars int, rows [][]int, rhs []float64) (float64, error) {
	const eps = 1e-9
	m := len(rows)
	w := nVars + m + 1
	t := make([]float64, (m+1)*w)
	basis := make([]int, m)
	for i, r := range rows {
		if rhs[i] < 0 {
			return 0, fmt.Errorf("simplex: negative right-hand side %g in row %d", rhs[i], i)
		}
		for _, j := range r {
			t[i*w+j] = 1
		}
		t[i*w+nVars+i] = 1
		t[i*w+w-1] = rhs[i]
		basis[i] = nVars + i
	}
	obj := t[m*w : (m+1)*w]
	for j := 0; j < nVars; j++ {
		obj[j] = -1
	}
	bland := false
	degenerate := 0
	maxIter := 50*(m+nVars) + 1000
	for iter := 0; iter < maxIter; iter++ {
		enter := -1
		for j := 0; j < w-1; j++ {
			if obj[j] < -eps && (enter < 0 || (!bland && obj[j] < obj[enter])) {
				enter = j
				if bland {
					break
				}
			}
		}
		if enter < 0 {
			return obj[w-1], nil
		}
		leave := -1
		best := math.Inf(1)
		for i := 0; i < m; i++ {
			a := t[i*w+enter]
			if a <= eps {
				continue
			}
			r := t[i*w+w-1] / a
			if r < best-eps || (r <= best+eps && leave >= 0 && basis[i] < basis[leave]) {
				best, leave = r, i
			}
		}
		if leave < 0 {
			return 0, fmt.Errorf("simplex: unbounded column %d", enter)
		}
		if best <= eps {
			if degenerate++; degenerate > 50 {
				bland = true
			}
		} else {
			degenerate = 0
		}
		pivot(t, w, m, leave, enter)
		basis[leave] = enter
	}
	return 0, fmt.Errorf("simplex: no optimum after %d pivots", maxIter)
}

// pivot makes column c basic in row r of the (m+1)×w tableau t.
func pivot(t []float64, w, m, r, c int) {
	pr := t[r*w : (r+1)*w]
	inv := 1 / pr[c]
	for j := range pr {
		pr[j] *= inv
	}
	pr[c] = 1
	for i := 0; i <= m; i++ {
		if i == r {
			continue
		}
		row := t[i*w : (i+1)*w]
		f := row[c]
		if f == 0 {
			continue
		}
		for j, v := range pr {
			if v != 0 {
				row[j] -= f * v
			}
		}
		row[c] = 0
	}
}
