package store

import "testing"

func TestPurge(t *testing.T) { New().Purge() }
