// Package qnet is the public API.
package qnet

import "example/internal/lib"

// V is lib.V.
type V = lib.V

// Run calls into lib.
func Run() string {
	lib.Used()
	return fmt(lib.T{})
}

func fmt(s interface{ String() string }) string { return s.String() }
