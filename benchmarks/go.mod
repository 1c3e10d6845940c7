// The benchmark is a module of its own so that the repository's build
// file never has to change for it; it reaches the program under test
// through the replace below and calls only the entry points README.md
// lists.
module cfaopc/benchmarks

go 1.22

require cfaopc v0.0.0

replace cfaopc => ../
