package optics

// MaxKernelSets is the kernel cache's bound, for tests outside the package.
const MaxKernelSets = maxKernelSets

// SetComputeKernels empties the kernel cache and makes CachedKernels
// decompose with f until restore is called, so tests outside the package
// can count decompositions from a cold start. Restore empties the cache
// again, so no set (or error) f made outlives the test.
func SetComputeKernels(f func(Config, bool) (*KernelSet, error)) (restore func()) {
	clearKernelCache()
	computeKernels = f
	return func() { clearKernelCache(); computeKernels = ComputeKernels }
}

func clearKernelCache() {
	kernelCacheMu.Lock()
	clear(kernelCache)
	kernelCacheMu.Unlock()
}
