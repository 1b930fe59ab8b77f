package main

import "exportscan/internal/store"

func main() { store.New().Put() }
