package lib

import "testing"

func TestUncalled(t *testing.T) { Uncalled() }
