// Package other does not import lib.
package other

// Seven is a constant.
const Seven = 7
