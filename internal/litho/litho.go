// Package litho implements the lithography forward model of Section 2.1 of
// the paper — Hopkins diffraction through a SOCS kernel set followed by a
// constant-threshold resist — together with the adjoint (gradient) path
// that every ILT engine in this repository differentiates through.
//
// The aerial image of a mask M is I = Σ_k λ_k |h_k ⊗ M|², evaluated in the
// frequency domain: each kernel lives as compact spectrum coefficients from
// the optics package, so one forward pass costs one FFT of the mask plus
// one inverse FFT per kernel. Process corners follow the ICCAD-2013
// convention: nominal = in-focus kernels at unit dose, the max/min corners
// share one defocused aerial image scaled by dose² (mask-side dose of
// 1.02/0.98).
package litho

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"cfaopc/internal/fft"
	"cfaopc/internal/grid"
	"cfaopc/internal/optics"
)

// Process constants shared by the whole reproduction.
const (
	// Threshold is the resist intensity threshold (ICCAD-2013 value).
	Threshold = 0.225
	// DoseMax and DoseMin are the mask-side dose corners.
	DoseMax = 1.02
	DoseMin = 0.98
	// ResistSteepness is the sigmoid slope θ_z of the differentiable
	// resist model used during optimization.
	ResistSteepness = 50.0
)

// Simulator binds a kernel pair (focus + defocus) to a pixel grid.
type Simulator struct {
	Cfg     optics.Config // the imaging condition the kernels derive from
	N       int           // grid pixels per side
	DX      float64       // nm per pixel
	Focus   *optics.KernelSet
	Defocus *optics.KernelSet
	// KOpt is the number of kernels used inside optimization loops; the
	// full set is always used by Simulate for evaluation. Zero means all.
	KOpt int
	// Workers bounds the goroutines used for per-kernel convolutions.
	// Zero or one runs serially; negative uses GOMAXPROCS. Results are
	// bit-identical regardless of parallelism: per-kernel fields are
	// computed into private buffers and reduced in kernel order.
	Workers int
	// Ctx, when non-nil, is checked cooperatively between per-kernel
	// convolution batches. Once it is canceled, Aerial and
	// AerialBackward stop early and return incomplete images; any
	// caller that sets Ctx must check Ctx.Err() after a pass and
	// discard the output when it is non-nil. This is how the tiled
	// flow makes SIGINT and per-tile deadlines interrupt a simulation
	// within one kernel convolution instead of one full tile.
	Ctx context.Context

	// scratch recycles N×N complex grids across forward and adjoint
	// passes. Each pass needs one spectrum plus one buffer per worker
	// (~16·N² bytes each); without reuse, concurrent tile-level flows
	// allocate that per kernel per iteration and thrash the GC.
	scratch sync.Pool
}

// getComplex returns a recycled (or fresh) N×N complex scratch grid. The
// contents are stale; callers must overwrite or zero every element.
func (s *Simulator) getComplex() *grid.Complex {
	if c, _ := s.scratch.Get().(*grid.Complex); c != nil {
		return c
	}
	return grid.NewComplex(s.N, s.N)
}

// putComplex returns a scratch grid to the pool.
func (s *Simulator) putComplex(c *grid.Complex) {
	if c != nil {
		s.scratch.Put(c)
	}
}

// canceled reports whether the simulator's context (if any) is done.
// context.Context errors are sticky, so once this returns true every
// later check in the same pass returns true as well.
func (s *Simulator) canceled() bool {
	return s.Ctx != nil && s.Ctx.Err() != nil
}

// workerCount resolves the effective parallelism.
func (s *Simulator) workerCount(jobs int) int {
	w := s.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > jobs {
		w = jobs
	}
	return w
}

// New computes (or fetches cached) kernel sets for cfg and binds them to
// an n×n pixel grid.
func New(cfg optics.Config, n int) (*Simulator, error) {
	if n <= 0 {
		return nil, fmt.Errorf("litho: invalid grid size %d", n)
	}
	focus, err := optics.CachedKernels(cfg, false)
	if err != nil {
		return nil, err
	}
	defocus, err := optics.CachedKernels(cfg, true)
	if err != nil {
		return nil, err
	}
	if 2*focus.Kernels[0].Half+1 > n {
		return nil, fmt.Errorf("litho: grid %d too small for kernel support %d", n, 2*focus.Kernels[0].Half+1)
	}
	return &Simulator{Cfg: cfg, N: n, DX: cfg.TileNM / float64(n), Focus: focus, Defocus: defocus}, nil
}

func (s *Simulator) kcount(set *optics.KernelSet, optimizing bool) int {
	k := len(set.Kernels)
	if optimizing && s.KOpt > 0 && s.KOpt < k {
		k = s.KOpt
	}
	return k
}

// applyKernel fills dst with Ĥ_k ⊙ maskF on the kernel's support bins
// and inverse-transforms it into the spatial field. The support is the
// band |f| ≤ k.Half: only the band's rows are zeroed and filled, and the
// inverse reads no other row, so a recycled dst costs no full clear.
func (s *Simulator) applyKernel(dst *grid.Complex, k *optics.Kernel, maskF *grid.Complex) {
	n := s.N
	side := 2*k.Half + 1
	for by := -k.Half; by <= k.Half; by++ {
		iy := (by + n) % n
		clear(dst.Data[iy*n : (iy+1)*n])
		row := (by + k.Half) * side
		for bx := -k.Half; bx <= k.Half; bx++ {
			c := k.Coef[row+bx+k.Half]
			if c == 0 {
				continue
			}
			ix := (bx + n) % n
			dst.Data[iy*n+ix] = c * maskF.Data[iy*n+ix]
		}
	}
	fft.Inverse2DBand(dst, k.Half)
}

// Aerial computes the aerial intensity image of mask under the given
// kernel set. When fields is non-nil it must have length ≥ the number of
// kernels used; the per-kernel coherent fields are stored there for a
// later adjoint pass. optimizing selects the truncated kernel count.
func (s *Simulator) Aerial(mask *grid.Real, set *optics.KernelSet, optimizing bool, fields []*grid.Complex) *grid.Real {
	if mask.W != s.N || mask.H != s.N {
		panic(fmt.Sprintf("litho: mask %dx%d does not match grid %d", mask.W, mask.H, s.N))
	}
	maskF := s.getComplex()
	for i, v := range mask.Data {
		maskF.Data[i] = complex(v, 0)
	}
	fft.Forward2D(maskF)
	intensity := grid.NewReal(s.N, s.N)
	kc := s.kcount(set, optimizing)
	workers := s.workerCount(kc)

	// Per-kernel fields are computed into private buffers (batched to
	// bound memory) and reduced serially in kernel order so the result is
	// identical at any worker count. Fields handed back to the caller are
	// freshly allocated; internal buffers come from the scratch pool.
	bufs := make([]*grid.Complex, workers)
	for start := 0; start < kc; start += workers {
		if s.canceled() {
			break // abandoned pass: the intensity image stays incomplete
		}
		end := start + workers
		if end > kc {
			end = kc
		}
		var wg sync.WaitGroup
		for ki := start; ki < end; ki++ {
			var dst *grid.Complex
			if fields != nil {
				dst = grid.NewComplex(s.N, s.N)
				fields[ki] = dst
			} else {
				if bufs[ki-start] == nil {
					bufs[ki-start] = s.getComplex()
				}
				dst = bufs[ki-start]
			}
			if workers == 1 {
				s.applyKernel(dst, &set.Kernels[ki], maskF)
				continue
			}
			wg.Add(1)
			go func(ki int, dst *grid.Complex) {
				defer wg.Done()
				s.applyKernel(dst, &set.Kernels[ki], maskF)
			}(ki, dst)
		}
		wg.Wait()
		for ki := start; ki < end; ki++ {
			dst := bufs[ki-start]
			if fields != nil {
				dst = fields[ki]
			}
			w := set.Kernels[ki].Weight
			for i, v := range dst.Data {
				re, im := real(v), imag(v)
				intensity.Data[i] += w * (re*re + im*im)
			}
		}
	}
	s.putComplex(maskF)
	for _, b := range bufs {
		s.putComplex(b)
	}
	return intensity
}

// AerialBackward propagates a gradient dL/dI through the aerial image back
// to the mask: dL/dM = Σ_k λ_k · 2·Re[ IFFT( conj(Ĥ_k) ⊙ FFT(dLdI ⊙
// conj(c_k)) ) ], where c_k are the coherent fields saved by Aerial.
func (s *Simulator) AerialBackward(dLdI *grid.Real, set *optics.KernelSet, optimizing bool, fields []*grid.Complex) *grid.Real {
	n := s.N
	kc := s.kcount(set, optimizing)
	workers := s.workerCount(kc)
	accF := s.getComplex()
	for i := range accF.Data {
		accF.Data[i] = 0
	}

	// dL/dM_j = 2λ·Re[Aᵀ(g ⊙ conj(c_k))]_j = 2λ·Re[Aᴴ(g ⊙ c_k)]_j for
	// real g, where Aᴴ = F⁻¹·conj(Ĥ)·F is the adjoint of the kernel
	// convolution — hence the *unconjugated* field below and the
	// conjugated kernel in the support accumulation. The per-kernel
	// forward FFTs run in parallel batches; the support-bin accumulation
	// stays serial and ordered for determinism.
	bufs := make([]*grid.Complex, workers)
	for i := range bufs {
		bufs[i] = s.getComplex()
	}
	for start := 0; start < kc; start += workers {
		if s.canceled() {
			break // abandoned pass: the gradient stays incomplete
		}
		end := start + workers
		if end > kc {
			end = kc
		}
		var wg sync.WaitGroup
		for ki := start; ki < end; ki++ {
			tmp := bufs[ki-start]
			ck := fields[ki]
			// Only the kernel's support bins are read back below, so
			// the forward transform computes just those columns.
			half := set.Kernels[ki].Half
			fill := func(tmp, ck *grid.Complex) {
				for i := range tmp.Data {
					tmp.Data[i] = complex(dLdI.Data[i], 0) * ck.Data[i]
				}
				fft.Forward2DBand(tmp, half)
			}
			if workers == 1 {
				fill(tmp, ck)
				continue
			}
			wg.Add(1)
			go func(tmp, ck *grid.Complex) {
				defer wg.Done()
				fill(tmp, ck)
			}(tmp, ck)
		}
		wg.Wait()
		for ki := start; ki < end; ki++ {
			k := &set.Kernels[ki]
			tmp := bufs[ki-start]
			side := 2*k.Half + 1
			w := complex(k.Weight, 0)
			for by := -k.Half; by <= k.Half; by++ {
				iy := (by + n) % n
				row := (by + k.Half) * side
				for bx := -k.Half; bx <= k.Half; bx++ {
					c := k.Coef[row+bx+k.Half]
					if c == 0 {
						continue
					}
					ix := (bx + n) % n
					idx := iy*n + ix
					accF.Data[idx] += w * complex(real(c), -imag(c)) * tmp.Data[idx]
				}
			}
		}
	}
	fft.Inverse2D(accF)
	gradM := grid.NewReal(n, n)
	for i, v := range accF.Data {
		gradM.Data[i] = 2 * real(v)
	}
	s.putComplex(accF)
	for _, b := range bufs {
		s.putComplex(b)
	}
	return gradM
}

// Sigmoid is the logistic function used by both resist and mask
// binarization models.
func Sigmoid(x float64) float64 {
	if x >= 0 {
		e := math.Exp(-x)
		return 1 / (1 + e)
	}
	e := math.Exp(x)
	return e / (1 + e)
}

// ResistSigmoid maps an aerial image to a smooth printed image
// σ(θ_z·(dose²·I − I_th)).
func ResistSigmoid(intensity *grid.Real, dose float64) *grid.Real {
	z := grid.NewReal(intensity.W, intensity.H)
	d2 := dose * dose
	for i, v := range intensity.Data {
		z.Data[i] = Sigmoid(ResistSteepness * (d2*v - Threshold))
	}
	return z
}

// ResistBinary maps an aerial image to the hard-threshold printed image of
// Equation (2).
func ResistBinary(intensity *grid.Real, dose float64) *grid.Real {
	z := grid.NewReal(intensity.W, intensity.H)
	d2 := dose * dose
	for i, v := range intensity.Data {
		if d2*v > Threshold {
			z.Data[i] = 1
		}
	}
	return z
}

// Result holds the binary printed images at the three process corners.
type Result struct {
	INom, IDef       *grid.Real // aerial images (focus / defocus)
	ZNom, ZMax, ZMin *grid.Real // printed images: nominal, outer, inner corner
}

// Simulate runs the full-accuracy forward model (all kernels, hard resist)
// at the three process corners.
func (s *Simulator) Simulate(mask *grid.Real) *Result {
	iNom := s.Aerial(mask, s.Focus, false, nil)
	iDef := s.Aerial(mask, s.Defocus, false, nil)
	return &Result{
		INom: iNom,
		IDef: iDef,
		ZNom: ResistBinary(iNom, 1.0),
		ZMax: ResistBinary(iDef, DoseMax),
		ZMin: ResistBinary(iDef, DoseMin),
	}
}

// DiffResult carries the differentiable losses of Equation (6) and their
// gradient with respect to the (continuous) mask.
type DiffResult struct {
	L2    float64    // ‖Z_nom − T‖² with the sigmoid resist, in px²
	PVB   float64    // ‖Z_max − T‖² + ‖Z_min − T‖² surrogate, in px²
	Loss  float64    // wL2·L2 + wPVB·PVB
	GradM *grid.Real // d Loss / d mask
}

// LossGrad evaluates L = wL2·L2 + wPVB·PVB on the truncated kernel set and
// returns the exact gradient with respect to every mask pixel. This is the
// single entry point all pixel- and circle-level ILT engines differentiate
// through.
func (s *Simulator) LossGrad(mask, target *grid.Real, wL2, wPVB float64) *DiffResult {
	n := s.N
	res := &DiffResult{}

	// Nominal corner: focus kernels, unit dose.
	kf := s.kcount(s.Focus, true)
	fieldsF := make([]*grid.Complex, kf)
	iNom := s.Aerial(mask, s.Focus, true, fieldsF)
	zNom := ResistSigmoid(iNom, 1.0)
	dLdINom := grid.NewReal(n, n)
	for i := range zNom.Data {
		d := zNom.Data[i] - target.Data[i]
		res.L2 += d * d
		dLdINom.Data[i] = wL2 * 2 * d * ResistSteepness * zNom.Data[i] * (1 - zNom.Data[i])
	}
	grad := s.AerialBackward(dLdINom, s.Focus, true, fieldsF)

	// Defocus corner: one aerial image serves both dose corners.
	if wPVB != 0 {
		kd := s.kcount(s.Defocus, true)
		fieldsD := make([]*grid.Complex, kd)
		iDef := s.Aerial(mask, s.Defocus, true, fieldsD)
		zMax := ResistSigmoid(iDef, DoseMax)
		zMin := ResistSigmoid(iDef, DoseMin)
		dLdIDef := grid.NewReal(n, n)
		const dMax2 = DoseMax * DoseMax
		const dMin2 = DoseMin * DoseMin
		for i := range zMax.Data {
			dmax := zMax.Data[i] - target.Data[i]
			dmin := zMin.Data[i] - target.Data[i]
			res.PVB += dmax*dmax + dmin*dmin
			dLdIDef.Data[i] = wPVB * 2 * ResistSteepness *
				(dmax*zMax.Data[i]*(1-zMax.Data[i])*dMax2 +
					dmin*zMin.Data[i]*(1-zMin.Data[i])*dMin2)
		}
		gradDef := s.AerialBackward(dLdIDef, s.Defocus, true, fieldsD)
		grad.Add(gradDef)
	}

	res.Loss = wL2*res.L2 + wPVB*res.PVB
	res.GradM = grad
	return res
}
