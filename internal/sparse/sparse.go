// Package sparse provides the sparse-matrix substrate used throughout the
// repository: triplet (coordinate) assembly, compressed sparse column
// storage of symmetric positive definite matrices (lower triangle), graph
// views, permutations, and dense conversion for small reference checks.
//
// All matrices in this project are N×N, symmetric, and stored as the lower
// triangle (diagonal included) in compressed sparse column (CSC) form with
// row indices sorted within each column — the same convention as the
// Harwell-Boeing matrices used in the paper.
//
// Every SymCSC built here (Triplet.Compile, PermuteSym) comes from one
// counting transpose, never a sort. Duplicate entries of one position are
// summed in the order they were added, starting from +0.0, so a lone -0.0
// is stored as +0.0 and any duplicates sum in a defined order.
package sparse

import (
	"fmt"
	"sort"
)

// Triplet accumulates coordinate-form entries of a symmetric matrix. Only
// the lower triangle (i >= j) is kept; entries supplied in the upper
// triangle are mirrored. Duplicate entries are summed during compilation.
type Triplet struct {
	N int
	I []int
	J []int
	V []float64
}

// NewTriplet returns an empty triplet accumulator for an n×n matrix.
func NewTriplet(n int) *Triplet {
	return &Triplet{N: n}
}

// Add records a(i,j) += v (and implicitly a(j,i) by symmetry). Entries with
// i < j are stored as (j, i).
func (t *Triplet) Add(i, j int, v float64) {
	if i < 0 || i >= t.N || j < 0 || j >= t.N {
		panic(fmt.Sprintf("sparse: triplet index (%d,%d) out of range for n=%d", i, j, t.N))
	}
	if i < j {
		i, j = j, i
	}
	t.I = append(t.I, i)
	t.J = append(t.J, j)
	t.V = append(t.V, v)
}

// Compile converts the accumulated triplets into CSC lower-triangular form.
func (t *Triplet) Compile() *SymCSC { return build(t.N, t.I, t.J, t.V) }

// build is the counting core every SymCSC is assembled by, from
// lower-triangle coordinates (rows[k] >= cols[k]). A two-pass counting
// transpose buckets the entries by row, keeping input order within a row,
// then walks the rows in ascending order appending each entry to its
// column, so every column's rows come out sorted without a sort. The
// duplicates of one (i,j) meet adjacently and are summed in input order
// from +0.0 (v := 0.0; v += …), so a lone -0.0 entry is stored as +0.0.
func build(n int, rows, cols []int, vals []float64) *SymCSC {
	rowPtr := make([]int, n+1)
	for _, i := range rows {
		rowPtr[i+1]++
	}
	for i := 0; i < n; i++ {
		rowPtr[i+1] += rowPtr[i]
	}
	next := append([]int(nil), rowPtr[:n]...)
	rowCol := make([]int, len(rows))
	rowVal := make([]float64, len(rows))
	for k, i := range rows {
		rowCol[next[i]], rowVal[next[i]] = cols[k], vals[k]
		next[i]++
	}
	// Size each column by its distinct rows: next[j] is now the last row
	// appended to column j.
	colPtr := make([]int, n+1)
	for j := range next {
		next[j] = -1
	}
	for i := 0; i < n; i++ {
		for _, j := range rowCol[rowPtr[i]:rowPtr[i+1]] {
			if next[j] != i {
				next[j] = i
				colPtr[j+1]++
			}
		}
	}
	for j := 0; j < n; j++ {
		colPtr[j+1] += colPtr[j]
	}
	// Fill: next[j] is now column j's write position.
	copy(next, colPtr[:n])
	rowIdx := make([]int, colPtr[n])
	val := make([]float64, colPtr[n])
	for i := 0; i < n; i++ {
		for p := rowPtr[i]; p < rowPtr[i+1]; p++ {
			j := rowCol[p]
			if q := next[j]; q > colPtr[j] && rowIdx[q-1] == i {
				val[q-1] += rowVal[p]
				continue
			}
			v := 0.0
			v += rowVal[p]
			rowIdx[next[j]], val[next[j]] = i, v
			next[j]++
		}
	}
	return &SymCSC{N: n, ColPtr: colPtr, RowIdx: rowIdx, Val: val}
}

// SymCSC is an N×N symmetric matrix stored as its lower triangle in
// compressed sparse column form. Row indices within each column are strictly
// increasing, and every column's first stored row is the diagonal when the
// diagonal entry is structurally present.
type SymCSC struct {
	N      int
	ColPtr []int // length N+1
	RowIdx []int // length nnz, sorted ascending within each column
	Val    []float64
}

// NNZ returns the number of stored (lower-triangle) entries.
func (a *SymCSC) NNZ() int { return a.ColPtr[a.N] }

// NNZFull returns the number of nonzeros of the full symmetric matrix
// (off-diagonal entries counted twice).
func (a *SymCSC) NNZFull() int {
	diag := 0
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j {
				diag++
			}
		}
	}
	return 2*a.NNZ() - diag
}

// Diag returns the diagonal entries (0 where structurally absent).
func (a *SymCSC) Diag() []float64 {
	d := make([]float64, a.N)
	for j := 0; j < a.N; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			if a.RowIdx[p] == j {
				d[j] = a.Val[p]
			}
		}
	}
	return d
}

// MulBlock computes Y = A·X for row-major n×m blocks X, Y. Column j
// scatters v·x_j into every row i below the diagonal and gathers v·x_i into
// row j: the terms of column j (the diagonal first, then the rows below in
// storage order) are added to what the columns before j left in row j, one
// rounded product at a time. At width 1, the per-request residual, row j's
// sum stays in a local for the whole column.
func (a *SymCSC) MulBlock(x, y *Block) {
	if x.N != a.N || y.N != a.N || x.M != y.M {
		panic("sparse: MulBlock dimension mismatch")
	}
	clear(y.Data)
	if x.M == 1 {
		a.mulBlock1(x.Data, y.Data)
		return
	}
	a.mulBlockM(x.Data, y.Data, x.M)
}

// column returns column j's stored rows and values.
func (a *SymCSC) column(j int) ([]int, []float64) {
	p0, p1 := a.ColPtr[j], a.ColPtr[j+1]
	return a.RowIdx[p0:p1], a.Val[p0:p1:p1]
}

func (a *SymCSC) mulBlock1(x, y []float64) {
	for j := range a.N {
		rows, vals := a.column(j)
		xj, yj := x[j], y[j]
		for p, i := range rows {
			v := vals[p]
			if i == j {
				yj += v * xj
				continue
			}
			y[i] += v * xj
			yj += v * x[i]
		}
		y[j] = yj
	}
}

// mulBlockM keeps row j's sums in y itself: no row below the diagonal is
// row j, so they are touched by nothing else during the column.
func (a *SymCSC) mulBlockM(x, y []float64, m int) {
	for j := range a.N {
		rows, vals := a.column(j)
		xj, yj := x[j*m:(j+1)*m:(j+1)*m], y[j*m:(j+1)*m:(j+1)*m]
		for p, i := range rows {
			v := vals[p]
			if i == j {
				for c, xc := range xj {
					yj[c] += v * xc
				}
				continue
			}
			xi, yi := x[i*m:(i+1)*m:(i+1)*m], y[i*m:(i+1)*m:(i+1)*m]
			for c, xc := range xj {
				yi[c] += v * xc
			}
			for c, xc := range xi {
				yj[c] += v * xc
			}
		}
	}
}

// PermuteSym returns B = P·A·Pᵀ where perm is the permutation in
// "new[k] = old[perm[k]]" form: row/column perm[k] of A becomes row/column
// k of B. The result remains lower-triangular CSC.
func (a *SymCSC) PermuteSym(perm []int) *SymCSC {
	n := a.N
	if len(perm) != n {
		panic("sparse: PermuteSym length mismatch")
	}
	inv := InvertPerm(perm)
	nnz := a.NNZ()
	rows, cols := make([]int, nnz), make([]int, nnz)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			rows[p], cols[p] = inv[a.RowIdx[p]], inv[j]
			if rows[p] < cols[p] {
				rows[p], cols[p] = cols[p], rows[p]
			}
		}
	}
	return build(n, rows, cols, a.Val[:nnz])
}

// Adjacency returns the adjacency structure of the matrix graph: for each
// vertex, the sorted list of distinct neighbors (both triangles, diagonal
// excluded).
func (a *SymCSC) Adjacency() [][]int {
	n := a.N
	deg := make([]int, n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i != j {
				deg[i]++
				deg[j]++
			}
		}
	}
	adj := make([][]int, n)
	for v := range adj {
		adj[v] = make([]int, 0, deg[v])
	}
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i != j {
				adj[i] = append(adj[i], j)
				adj[j] = append(adj[j], i)
			}
		}
	}
	for v := range adj {
		sort.Ints(adj[v])
	}
	return adj
}

// ToDense expands the full symmetric matrix into a row-major n×n slice.
// Intended for small reference checks only.
func (a *SymCSC) ToDense() []float64 {
	n := a.N
	d := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			d[i*n+j] = a.Val[p]
			d[j*n+i] = a.Val[p]
		}
	}
	return d
}

// Clone returns a deep copy.
func (a *SymCSC) Clone() *SymCSC {
	b := &SymCSC{
		N:      a.N,
		ColPtr: append([]int(nil), a.ColPtr...),
		RowIdx: append([]int(nil), a.RowIdx...),
		Val:    append([]float64(nil), a.Val...),
	}
	return b
}

// Validate checks the structural invariants of the lower-triangular CSC
// form and returns a descriptive error on the first violation.
func (a *SymCSC) Validate() error {
	if len(a.ColPtr) != a.N+1 {
		return fmt.Errorf("sparse: colptr length %d, want %d", len(a.ColPtr), a.N+1)
	}
	if a.ColPtr[0] != 0 {
		return fmt.Errorf("sparse: colptr[0] = %d, want 0", a.ColPtr[0])
	}
	nnz := a.ColPtr[a.N]
	if len(a.RowIdx) != nnz || len(a.Val) != nnz {
		return fmt.Errorf("sparse: rowidx/val length mismatch with colptr")
	}
	for j := 0; j < a.N; j++ {
		if a.ColPtr[j] > a.ColPtr[j+1] {
			return fmt.Errorf("sparse: colptr not monotone at column %d", j)
		}
		prev := -1
		for p := a.ColPtr[j]; p < a.ColPtr[j+1]; p++ {
			i := a.RowIdx[p]
			if i < j {
				return fmt.Errorf("sparse: upper-triangle entry (%d,%d)", i, j)
			}
			if i >= a.N {
				return fmt.Errorf("sparse: row index %d out of range", i)
			}
			if i <= prev {
				return fmt.Errorf("sparse: unsorted/duplicate row %d in column %d", i, j)
			}
			prev = i
		}
	}
	return nil
}

// InvertPerm returns the inverse permutation: inv[perm[k]] = k.
func InvertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for k, v := range perm {
		inv[v] = k
	}
	return inv
}

// IsPerm reports whether p is a permutation of 0..len(p)-1.
func IsPerm(p []int) bool {
	seen := make([]bool, len(p))
	for _, v := range p {
		if v < 0 || v >= len(p) || seen[v] {
			return false
		}
		seen[v] = true
	}
	return true
}

// IdentityPerm returns the identity permutation of length n.
func IdentityPerm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	return p
}
