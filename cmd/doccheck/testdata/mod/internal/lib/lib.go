// Package lib declares one identifier of each kind the check judges.
package lib

import "fmt"

// C has no caller.
const C = 1

// Used is called by a program of the module.
func Used() {}

// Uncalled is called only by a test.
func Uncalled() {}

// FromNested is called only by the nested module.
func FromNested() {}

// Kept has no caller but is listed as an exception.
func Kept() {}

// Internal is called only from its own package.
func Internal() {}

func helper() { Internal() }

// T is used by a program.
type T struct{}

// String satisfies fmt.Stringer, so calls name the interface's method.
func (T) String() string { return fmt.Sprint("t") }

// Dead has no caller.
func (T) Dead() {}

// V is re-exported by alias from qnet.
type V struct{}

// Extra is public API through the alias.
func (V) Extra() {}
