package core

import (
	"math"
	"testing"

	"repro/internal/basis"
	"repro/internal/linalg"
)

func TestGramConditionIdentity(t *testing.T) {
	g := linalg.NewMatrixFrom([][]float64{
		{1, 0},
		{0, 1},
		{0, 0},
	})
	cond, err := GramConditionEstimate(basis.DenseDesignFromMatrix(g), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(cond-1) > 1e-9 {
		t.Errorf("condition of orthonormal support = %g, want 1", cond)
	}
}

func TestGramConditionNearlyDependent(t *testing.T) {
	// Two nearly parallel columns: condition number blows up.
	eps := 1e-4
	g := linalg.NewMatrixFrom([][]float64{
		{1, 1},
		{0, eps},
	})
	cond, err := GramConditionEstimate(basis.DenseDesignFromMatrix(g), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if cond < 1e6 {
		t.Errorf("condition = %g, want ≫ 1e6 for nearly parallel columns", cond)
	}
}

func TestGramConditionEmptySupport(t *testing.T) {
	g := linalg.NewMatrixFrom([][]float64{{1}})
	cond, err := GramConditionEstimate(basis.DenseDesignFromMatrix(g), nil)
	if err != nil || cond != 1 {
		t.Errorf("empty support: cond=%g err=%v, want 1, nil", cond, err)
	}
}

func TestGramConditionSingular(t *testing.T) {
	g := linalg.NewMatrixFrom([][]float64{
		{1, 1},
		{2, 2},
	})
	cond, err := GramConditionEstimate(basis.DenseDesignFromMatrix(g), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(cond, 1) {
		t.Errorf("condition of singular support = %g, want +Inf", cond)
	}
}
