// Package use reaches lib only through mid.
package use

import (
	"exttest/lib"
	"exttest/mid"
	"exttest/other"
)

// Make builds a T through mid.
func Make() *lib.T { return mid.Wrap(other.Seven) }
