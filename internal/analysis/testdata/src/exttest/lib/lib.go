// Package lib has an unexported field its external tests reach through
// export_test.go.
package lib

// T holds a hidden count.
type T struct{ n int }

// New returns a T holding n.
func New(n int) *T { return &T{n: n} }
