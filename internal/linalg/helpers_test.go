package linalg

// gram computes mᵀ·m, the Gram matrix of the columns of m.
func gram(m *Matrix) *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for a, va := range row {
			for b, vb := range row {
				out.Data[a*out.Cols+b] += va * vb
			}
		}
	}
	return out
}

// solveSquare solves the square system A·x = b through LUFactor.
func solveSquare(a *Matrix, b []float64) ([]float64, error) {
	lu, err := LUFactor(a)
	if err != nil {
		return nil, err
	}
	return lu.Solve(b)
}
