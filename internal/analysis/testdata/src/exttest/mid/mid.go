// Package mid imports lib directly.
package mid

import "exttest/lib"

// Wrap builds a T.
func Wrap(n int) *lib.T { return lib.New(n) }
