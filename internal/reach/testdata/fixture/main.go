package main

import "fixture/lib"

func main() {
	t := &lib.T{}
	b := &lib.Box[int]{}
	println(lib.Sum([]int{1, 2}), lib.Sum([]float64{3}), t.Used(), b.Get())
}
