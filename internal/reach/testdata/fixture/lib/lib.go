// Package lib plants unreached code of each symbol shape the gate maps.
package lib

type T struct{ n int }

type Box[E any] struct{ v E }

// Sum is generic and reached: its symbols carry an instantiation suffix.
func Sum[E int | float64](xs []E) E {
	var s E
	for _, x := range xs {
		s += x
	}
	return s
}

// Get is a reached method of a generic type.
func (b *Box[E]) Get() E { return b.v }

// Used is a reached pointer-receiver method.
func (t *T) Used() int { return t.n }

// Unused, PtrUnused and ValUnused are reached by nothing.
func Unused() int { return 1 }

func (t *T) PtrUnused() int { return t.n + 1 }

func (t T) ValUnused() int { return t.n + 2 }
