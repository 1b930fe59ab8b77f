package store

import "testing"

func TestPurge(t *testing.T) { New().Purge() }

func TestCache(t *testing.T) { new(Cache).Put() }

func TestReset(t *testing.T) { Reset(New()) }
