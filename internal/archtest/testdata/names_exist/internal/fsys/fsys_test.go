package fsys

import "testing"

func TestKept(t *testing.T) {}
