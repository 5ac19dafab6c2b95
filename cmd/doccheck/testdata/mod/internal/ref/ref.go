// Package ref is imported by nothing.
package ref

// Model has no caller.
func Model() {}
