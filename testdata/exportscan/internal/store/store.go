// Package store is the export scan's fixture.
package store

import "fmt"

// Store counts puts.
type Store struct{ n int }

func New() *Store { return &Store{} } // used by cmd/tool

func (s *Store) Put() { s.n++ } // used by cmd/tool

func (s *Store) Purge() { s.n = 0 } // only store_test.go calls it

func (s *Store) String() string { return fmt.Sprint(s.n) } // satisfies fmt.Stringer; nothing names it

func Debug() { New().dump() } // no caller; allowlisted

func (s *Store) dump() { fmt.Println(s) } // only Debug calls it

// Cache counts puts too.
type Cache struct{ n int }

func (c *Cache) Put() { c.n++ } // only store_test.go calls it; Store.Put shares its name

func Reset(s *Store) { Compact(s) } // only store_test.go calls it

func Compact(s *Store) { s.n = 0 } // only Reset calls it
