package mat

// This file holds the in-place / batched kernels that back the neural-network
// compute spine. Unlike the allocating helpers in mat.go — kept for the
// linear-algebra solvers where clarity wins — these kernels write into
// caller-owned memory so per-epoch training loops run without allocation.

// Reshape reuses m's backing array as a rows×cols view, growing the backing
// only when its capacity is insufficient. Existing contents are preserved up
// to the new length when no growth occurs and are otherwise unspecified;
// callers treat a reshaped matrix as uninitialized scratch. Returns m.
//
//nnwc:hotpath
func (m *Matrix) Reshape(rows, cols int) *Matrix {
	if rows <= 0 || cols <= 0 {
		panic(ErrShape)
	}
	n := rows * cols
	if cap(m.Data) < n {
		//lint:waive hotpath -- grow-on-first-use; the steady state takes the capacity fast path (TestBatchEpochZeroAlloc)
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// CopyRows copies a rectangular [][]float64 into m, reshaping it to fit.
// It panics on empty or ragged input. Returns m.
func (m *Matrix) CopyRows(rows [][]float64) *Matrix {
	if len(rows) == 0 || len(rows[0]) == 0 {
		panic(ErrShape)
	}
	m.Reshape(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(ErrShape)
		}
		copy(m.Data[i*m.Cols:(i+1)*m.Cols], r)
	}
	return m
}

// Zero sets every element of m to zero.
//
//nnwc:hotpath
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulInto computes dst = a·b without allocating. dst must not alias a or b;
// it is reshaped to a.Rows×b.Cols. Returns dst. Each cell starts at +0 and
// adds a[i][k]·b[k][j] in ascending k, skipping exact-zero a[i][k].
//
//nnwc:hotpath
func MulInto(dst, a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(ErrShape)
	}
	dst.Reshape(a.Rows, b.Cols)
	mulInto(dst, a, b)
	return dst
}

// mulGo is MulInto's portable kernel (dst already shaped) and its
// definition: every cell from +0 plus a[i][k]·b[k][j] in ascending k,
// skipping exact-zero a[i][k] (so 0·Inf never reaches a cell).
//
//nnwc:hotpath
func mulGo(dst, a, b *Matrix) {
	for i := 0; i < a.Rows; i++ {
		arow, crow := a.Row(i), dst.Row(i)
		for j := range crow {
			var s float64
			for k, av := range arow {
				//lint:waive floateq -- exact-zero sparsity skip in the inner product; FP-safe
				if av != 0 {
					s += av * b.Data[k*b.Cols+j]
				}
			}
			crow[j] = s
		}
	}
}

// AddScaledInto computes dst += alpha·src element-wise over whole matrices.
// The shapes must match.
//
//nnwc:hotpath
func AddScaledInto(dst *Matrix, alpha float64, src *Matrix) {
	if dst.Rows != src.Rows || dst.Cols != src.Cols {
		panic(ErrShape)
	}
	AXPY(alpha, src.Data, dst.Data)
}
