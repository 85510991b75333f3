// The benchmark is a module of its own so that it builds from the
// benchmark's directory with its own build file; the path stays under
// mavscan/ so it may import the scanner's internal layer packages.
module mavscan/bench

go 1.22

require mavscan v0.0.0

replace mavscan => ../
