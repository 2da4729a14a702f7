// Package reach holds the reachability gate, `make reach`. It has no
// code of its own: the gate is a test (gate_test.go, build tag reach)
// that builds every main package of the module, plus generated mains that
// root package rsm's API and the allowlist, with inlining off, and fails
// when a top-level function or method declared under internal/ is linked
// into none of them.
package reach
