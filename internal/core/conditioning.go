package core

import (
	"math"

	"repro/internal/basis"
	"repro/internal/linalg"
)

// GramConditionEstimate returns the 2-norm condition number of the
// normalized Gram matrix of the given support columns, estimated by power
// iteration on the Gram and its inverse (via Cholesky). It measures how
// well-posed the active-set least-squares problem of Algorithm 1 Step 6 is.
func GramConditionEstimate(d basis.Design, support []int) (float64, error) {
	p := len(support)
	if p == 0 {
		return 1, nil
	}
	cols := make([][]float64, p)
	for i, idx := range support {
		c := d.Column(nil, idx)
		n := linalg.Norm2(c)
		if n > 0 {
			linalg.Scale(1/n, c)
		}
		cols[i] = c
	}
	gram := linalg.NewMatrix(p, p)
	for i := 0; i < p; i++ {
		for j := i; j < p; j++ {
			v := linalg.Dot(cols[i], cols[j])
			gram.Set(i, j, v)
			gram.Set(j, i, v)
		}
	}
	chol, err := linalg.CholeskyFactor(gram)
	if err != nil {
		return math.Inf(1), nil // singular active set
	}
	// Power iteration for λ_max and, via solves, λ_min.
	x := make([]float64, p)
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(p))
	}
	lmax := 0.0
	for it := 0; it < 100; it++ {
		y := gram.MulVec(nil, x)
		n := linalg.Norm2(y)
		if n == 0 {
			break
		}
		linalg.Scale(1/n, y)
		copy(x, y)
		lmax = n
	}
	for i := range x {
		x[i] = 1 / math.Sqrt(float64(p))
	}
	linvMax := 0.0
	for it := 0; it < 100; it++ {
		y, err := chol.Solve(x)
		if err != nil {
			return math.Inf(1), nil
		}
		n := linalg.Norm2(y)
		if n == 0 {
			break
		}
		linalg.Scale(1/n, y)
		copy(x, y)
		linvMax = n
	}
	if linvMax == 0 {
		return math.Inf(1), nil
	}
	return lmax * linvMax, nil
}
