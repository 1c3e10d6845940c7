package optics

// SetComputeKernels empties the kernel cache and makes CachedKernels
// decompose with f until restore is called, so tests outside the package
// can count decompositions from a cold start.
func SetComputeKernels(f func(Config, bool) (*KernelSet, error)) (restore func()) {
	kernelCacheMu.Lock()
	clear(kernelCache)
	kernelCacheMu.Unlock()
	computeKernels = f
	return func() { computeKernels = ComputeKernels }
}
