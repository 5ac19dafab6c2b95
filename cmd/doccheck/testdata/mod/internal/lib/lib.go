// Package lib declares one identifier of each kind the check judges.
package lib

import "fmt"

// C has no caller.
const C = 1

// Used is called by a program of the module.
func Used() { help() }

func help() { Helped() }

// Helped is called only from its own package, through a function a
// program reaches.
func Helped() {}

// Uncalled is called only by a test.
func Uncalled() { Chained() }

// Chained is called only by Uncalled, which no program reaches.
func Chained() {}

// FromNested is called only by the nested module.
func FromNested() {}

func init() { FromInit() }

// FromInit is called only by the package's init function, which runs
// whenever a program links the package.
func FromInit() {}

// Kept has no caller but is listed as an exception, which keeps what
// it calls.
func Kept() { KeptDep() }

// KeptDep is called only by Kept.
func KeptDep() {}

// Internal is called only from its own package, by a function nothing
// calls.
func Internal() {}

func helper() { Internal() }

// T is used by a program.
type T struct{}

// String satisfies fmt.Stringer, so calls name the interface's method.
func (T) String() string { return fmt.Sprint(Named()) }

// Named is called only by a method that calls through an interface
// reach.
func Named() string { return "t" }

// Dead has no caller.
func (T) Dead() {}

// V is re-exported by alias from qnet.
type V struct{}

// Extra is public API through the alias.
func (V) Extra() {}
