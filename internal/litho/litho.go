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

// Simulator binds a kernel pair (focus + defocus) to a pixel grid. It owns
// the buffers its passes run in and runs its kernels one after another, so
// one Simulator serves one goroutine at a time; the tiled flow binds one
// per lane, and lanes are the only parallelism.
type Simulator struct {
	Cfg            optics.Config     // the imaging condition the kernels derive from
	N              int               // grid pixels per side
	DX             float64           // nm per pixel
	Focus, Defocus *optics.KernelSet // nil until fetched: by New, or by a Bind simulator's first pass
	// KOpt is the number of kernels used inside optimization loops; the
	// full set is always used by Simulate for evaluation. Zero means all.
	KOpt int
	// Ctx, when non-nil, is checked cooperatively before every kernel
	// convolution. Once it is canceled, Aerial, Simulate and LossGrad
	// stop early and return incomplete images; any caller that sets Ctx
	// must check Ctx.Err() after a pass and discard the output when it
	// is non-nil. This is how the tiled
	// flow makes SIGINT and per-tile deadlines interrupt a simulation
	// within one kernel convolution instead of one full tile.
	Ctx context.Context
	// OnBeat, when non-nil, receives the heartbeat (iteration, loss) an
	// optimizer loop emits through Beat after each iteration. The tiled
	// flow sets it beside Ctx for progress and its stall timer.
	OnBeat func(iter int, loss float64)

	// simGrid pins the side M of the simulation grid. It is zero outside
	// the tests, which selects M by rule (simGridFor).
	simGrid int
	// arena is every grid a pass needs, sized on first use and then
	// reused: a warm LossGrad allocates nothing.
	arena *arena
}

// simGridFor returns the side M of the grid the per-kernel work runs on.
// Every coherent field is band-limited to the kernel support |f| ≤ half
// whatever the pixel pitch, so Σ wₖ|fieldₖ|² is band-limited to 2·half and
// M > 4·half samples hold it without aliasing; 4·half+2 also keeps the
// ±half bins of (dL/dI)·field — a product reaching 3·half — clear of their
// own aliases, which is what makes the reduced adjoint exact. From there M
// is the next power of two or three times one: lengths the FFT runs almost
// entirely in radix-4 stages, which beat shorter lengths with more odd
// factors (96 against 90, 64 against 54). M never exceeds n: a grid too
// coarse for its band simulates on itself, as it always did.
func simGridFor(n, half int) int {
	need := 4*half + 2
	m := 4
	for m < need {
		m *= 2
	}
	if m/4*3 >= need {
		m = m / 4 * 3
	}
	return min(n, m)
}

// arena holds the working set of one Simulator. N-grids are n×n (the
// mask's pixels), M-grids m×m (the simulation grid).
type arena struct {
	n, m, half int
	// down = m²/n² scales the mask so that an inverse transform on the
	// M-grid yields true field samples; up = 1/down scales intensities so
	// that an M-grid spectrum zero-padded to N is the N-grid spectrum.
	down, up float64

	specN  *grid.Complex      // N-grid: the mask's spectrum going in, the gradient's coming out
	mask   []float64          // N-grid: the last mask loaded, nil before the first
	rowT   []complex128       // n rows × the band's 2·half+1 columns: each mask row's transform there
	packN  *grid.Complex      // N-grid: both corners' images as (re, im), then both dL/dI; packM itself when m == n
	packM  *grid.Complex      // M-grid: the same pair on the simulation grid
	inten  [2][]float64       // M-grid Σ wₖ|fieldₖ|², one per corner
	fields [2][]*grid.Complex // M-grid coherent fields LossGrad saves for its adjoint, per corner
	buf    *grid.Complex      // M-grid: the kernel in flight, when its field is not saved
	gradM  *grid.Real
	res    DiffResult
}

// arenaFor returns the simulator's arena, (re)building it when the grid or
// the kernel support it was sized for changed.
func (s *Simulator) arenaFor(set *optics.KernelSet) *arena {
	half := set.Kernels[0].Half
	m := s.simGrid
	if m == 0 {
		m = simGridFor(s.N, half)
	}
	if a := s.arena; a != nil && a.n == s.N && a.m == m && a.half == half {
		return a
	}
	n := s.N
	a := &arena{n: n, m: m, half: half,
		down:  float64(m*m) / float64(n*n),
		up:    float64(n*n) / float64(m*m),
		specN: grid.NewComplex(n, n),
		packM: grid.NewComplex(m, m),
		buf:   grid.NewComplex(m, m),
		inten: [2][]float64{make([]float64, m*m), make([]float64, m*m)},
		gradM: grid.NewReal(n, n),
	}
	a.packN = a.packM
	if m != n {
		a.packN = grid.NewComplex(n, n)
	}
	s.arena = a
	return a
}

// saved returns k M-grids for the fields of one corner.
func (a *arena) saved(corner, k int) []*grid.Complex {
	for len(a.fields[corner]) < k {
		a.fields[corner] = append(a.fields[corner], grid.NewComplex(a.m, a.m))
	}
	return a.fields[corner][:k]
}

// Canceled reports whether the simulator's context (if any) is done.
// context.Context errors are sticky, so once this returns true every
// later check returns true as well: the optimizer loops test it at each
// iteration boundary and stop, since every pass after it is incomplete.
func (s *Simulator) Canceled() bool {
	return s.Ctx != nil && s.Ctx.Err() != nil
}

// Beat emits one heartbeat to OnBeat; without a receiver it does
// nothing, so optimizer loops call it once per iteration regardless.
func (s *Simulator) Beat(iter int, loss float64) {
	if s.OnBeat != nil {
		s.OnBeat(iter, loss)
	}
}

// New binds cfg to an n×n pixel grid (Bind) and fetches its kernel sets,
// computed or shared from the optics cache, at once.
func New(cfg optics.Config, n int) (*Simulator, error) {
	return newWith(cfg, n, optics.CachedKernels)
}

// newWith is New over a given source of kernel sets.
func newWith(cfg optics.Config, n int, kernels func(optics.Config, bool) (*optics.KernelSet, error)) (*Simulator, error) {
	s, err := Bind(cfg, n)
	if err == nil {
		err = s.fetch(kernels)
	}
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Bind checks cfg, and an n×n grid against its kernel support, and binds
// them without kernels: the first Simulate or LossGrad fetches those.
func Bind(cfg optics.Config, n int) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("litho: %w", err)
	}
	if support := 2*cfg.SupportHalf() + 1; support > n {
		return nil, fmt.Errorf("litho: grid %d too small for kernel support %d", n, support)
	}
	return &Simulator{Cfg: cfg, N: n, DX: cfg.TileNM / float64(n)}, nil
}

// fetch builds the focus and defocus sets from kernels side by side, the
// defocus set on a goroutine of its own, unless the simulator holds them.
func (s *Simulator) fetch(kernels func(optics.Config, bool) (*optics.KernelSet, error)) error {
	if s.Focus != nil {
		return nil
	}
	var defocus *optics.KernelSet
	derr := make(chan error, 1)
	go func() { set, err := kernels(s.Cfg, true); defocus = set; derr <- err }()
	focus, err := kernels(s.Cfg, false)
	if e := <-derr; err == nil {
		err = e
	}
	if err == nil {
		s.Focus, s.Defocus = focus, defocus
	}
	return err
}

// fetched returns the kernel sets, fetched on a pass's first use. Bind
// refused every config the decomposition refuses, so a failed fetch is a
// fault: it panics with its error, which the flow's attempt records.
func (s *Simulator) fetched() (focus, defocus *optics.KernelSet) {
	if err := s.fetch(optics.CachedKernels); err != nil {
		panic(err)
	}
	return s.Focus, s.Defocus
}

func (s *Simulator) kcount(set *optics.KernelSet, optimizing bool) int {
	k := len(set.Kernels)
	if optimizing && s.KOpt > 0 && s.KOpt < k {
		k = s.KOpt
	}
	return k
}

// wrap maps a signed frequency bin to its index on an n-point axis.
func wrap(b, n int) int {
	if b < 0 {
		return b + n
	}
	return b
}

// moveBand copies the spectrum bins |fx|, |fy| ≤ band from src to dst —
// grids of different sizes, each holding its bins wrapped — and clears the
// rest of dst's band rows. That is everything a band-pruned inverse of dst
// reads, so dst needs no other clearing.
func moveBand(dst, src *grid.Complex, band int) {
	for by := -band; by <= band; by++ {
		drow := dst.Data[wrap(by, dst.H)*dst.W:][:dst.W]
		srow := src.Data[wrap(by, src.H)*src.W:][:src.W]
		clear(drow)
		copy(drow[:band+1], srow[:band+1])
		copy(drow[dst.W-band:], srow[src.W-band:])
	}
}

// loadMask leaves the mask's spectrum, scaled for the simulation grid, on
// the band |f| ≤ half of specN: the only bins a kernel reads. A row's
// transform depends on that row alone, so the arena keeps the last mask
// and each row's transform on the band's columns, transforms again only
// the rows whose bits changed, and runs the band's column pass: every bin
// is == to Forward2DBand's of the whole mask.
func (a *arena) loadMask(mask *grid.Real) {
	n, h := a.n, a.half
	if mask.W != n || mask.H != n {
		panic(fmt.Sprintf("litho: mask %dx%d does not match grid %d", mask.W, mask.H, n))
	}
	fresh := a.mask == nil
	if fresh {
		a.mask, a.rowT = make([]float64, n*n), make([]complex128, n*(2*h+1))
	}
	for y := 0; y < n; y++ {
		src, last := mask.Data[y*n:][:n], a.mask[y*n:][:n]
		row, t := a.specN.Data[y*n:][:n], a.rowT[y*(2*h+1):][:2*h+1]
		if fresh || !sameBits(src, last) {
			for x, v := range src {
				row[x] = complex(a.down*v, 0)
			}
			fft.Forward(row)
			copy(t, row[:h+1])
			copy(t[h+1:], row[n-h:])
			copy(last, src) // only once its transform is kept
		}
		copy(row, t[:h+1])
		copy(row[n-h:], t[h+1:])
	}
	fft.ColumnPass(a.specN, false, -1, 0, h+1)
	fft.ColumnPass(a.specN, false, -1, n-h, n)
}

// sameBits reports whether a and b hold the same bits: a -0 where there
// was a +0 is a change.
func sameBits(a, b []float64) bool {
	for i, v := range a {
		if math.Float64bits(v) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// applyKernel fills dst with Ĥ_k ⊙ (mask spectrum) on the kernel's support
// bins and inverse-transforms it into the spatial field on the simulation
// grid. The support is the band |f| ≤ k.Half: only the band's rows are
// zeroed and filled, and the inverse reads no other row, so a recycled dst
// costs no full clear.
func (a *arena) applyKernel(dst *grid.Complex, k *optics.Kernel) {
	n, m := a.n, a.m
	side := 2*k.Half + 1
	for by := -k.Half; by <= k.Half; by++ {
		src := a.specN.Data[wrap(by, n)*n:][:n]
		row := dst.Data[wrap(by, m)*m:][:m]
		clear(row)
		coef := k.Coef[(by+k.Half)*side:][:side]
		for bx := -k.Half; bx <= k.Half; bx++ {
			if c := coef[bx+k.Half]; c != 0 {
				row[wrap(bx, m)] = c * src[wrap(bx, n)]
			}
		}
	}
	fft.Inverse2DBand(dst, k.Half)
}

// adjointKernel leaves FFT((dL/dI) ⊙ field) in tmp on the columns of the
// kernel's band, the only bins gather reads. dL/dI is one part of packM:
// corner 0's is the real part, corner 1's the imaginary.
func (a *arena) adjointKernel(tmp *grid.Complex, k *optics.Kernel, field *grid.Complex, corner int) {
	if corner == 0 {
		for i, g := range a.packM.Data {
			tmp.Data[i] = complex(real(g)*real(field.Data[i]), real(g)*imag(field.Data[i]))
		}
	} else {
		for i, g := range a.packM.Data {
			tmp.Data[i] = complex(imag(g)*real(field.Data[i]), imag(g)*imag(field.Data[i]))
		}
	}
	fft.Forward2DBand(tmp, k.Half)
}

// gather folds kernel k's adjoint, left in tmp by adjointKernel, into the
// gradient's spectrum: dL/dM = Σ_k 2λ_k·Re[A_kᴴ(g ⊙ c_k)] for real g, where
// A_kᴴ = F⁻¹·conj(Ĥ_k)·F is the adjoint of the kernel convolution — hence
// the unconjugated field in adjointKernel and the conjugated kernel here.
// Only the support bins of the spectrum are touched.
func (a *arena) gather(tmp *grid.Complex, k *optics.Kernel) {
	n, m := a.n, a.m
	side := 2*k.Half + 1
	w := complex(k.Weight, 0)
	for by := -k.Half; by <= k.Half; by++ {
		acc := a.specN.Data[wrap(by, n)*n:][:n]
		row := tmp.Data[wrap(by, m)*m:][:m]
		coef := k.Coef[(by+k.Half)*side:][:side]
		for bx := -k.Half; bx <= k.Half; bx++ {
			if c := coef[bx+k.Half]; c != 0 {
				acc[wrap(bx, n)] += w * complex(real(c), -imag(c)) * row[wrap(bx, m)]
			}
		}
	}
}

// forward accumulates Σ_k λ_k|field_k|² of the loaded mask on the
// simulation grid for one corner, over the first kc kernels of set, in
// kernel order. Field k is left in fields[k] when fields is non-nil. A
// canceled context abandons the pass before its next kernel.
func (s *Simulator) forward(a *arena, corner int, set *optics.KernelSet, kc int, fields []*grid.Complex) {
	acc := a.inten[corner]
	clear(acc)
	for ki := 0; ki < kc; ki++ {
		if s.Canceled() {
			break // abandoned pass: the accumulator stays incomplete
		}
		k := &set.Kernels[ki]
		field := a.buf
		if fields != nil {
			field = fields[ki]
		}
		a.applyKernel(field, k)
		w := k.Weight
		for i, v := range field.Data {
			re, im := real(v), imag(v)
			acc[i] += w * (re*re + im*im)
		}
	}
}

// raise turns the two corners' simulation-grid intensities into packN =
// (corner 0) + i·(corner 1) on the pixel grid, by zero-padding the
// spectrum of the pair: each image is real and band-limited to 2·half, so
// one complex transform pair carries both exactly.
func (a *arena) raise() {
	for i := range a.packM.Data {
		a.packM.Data[i] = complex(a.up*a.inten[0][i], a.up*a.inten[1][i])
	}
	if a.m == a.n {
		return
	}
	fft.Forward2DBand(a.packM, 2*a.half)
	moveBand(a.packN, a.packM, 2*a.half)
	fft.Inverse2DBand(a.packN, 2*a.half)
}

// backward is the adjoint of forward followed by raise, for the pair of
// gradients packN = dL/dI₀ + i·dL/dI₁: the transpose of zero-padding is
// cropping (lower), and each kernel's adjoint then runs on the simulation
// grid against the saved fields. It leaves dL/dmask in gradM on the
// columns [x0, x1), the only ones the last inverse's column pass
// transforms, and zero on the others.
func (s *Simulator) backward(a *arena, sets [2]*optics.KernelSet, kc [2]int, fields [2][]*grid.Complex, x0, x1 int) {
	if a.m != a.n {
		fft.Forward2DBand(a.packN, 2*a.half)
		moveBand(a.packM, a.packN, 2*a.half)
		fft.Inverse2DBand(a.packM, 2*a.half)
	}
	for by := -a.half; by <= a.half; by++ {
		clear(a.specN.Data[wrap(by, a.n)*a.n:][:a.n])
	}
	for corner, set := range sets {
		for ki := 0; ki < kc[corner]; ki++ {
			if s.Canceled() {
				break // abandoned pass: the gradient stays incomplete
			}
			k := &set.Kernels[ki]
			a.adjointKernel(a.buf, k, fields[corner][ki], corner)
			a.gather(a.buf, k)
		}
	}
	// Inverse2DBand with its column pass cut to [x0, x1).
	for by := -a.half; by <= a.half; by++ {
		fft.Inverse(a.specN.Data[wrap(by, a.n)*a.n:][:a.n])
	}
	fft.ColumnPass(a.specN, true, a.half, x0, x1)
	for y := 0; y < a.n; y++ {
		src, dst := a.specN.Data[y*a.n:][:a.n], a.gradM.Data[y*a.n:][:a.n]
		clear(dst[:x0])
		for x := x0; x < x1; x++ {
			dst[x] = 2 * real(src[x])
		}
		clear(dst[x1:])
	}
}

// Aerial computes the aerial intensity image of mask under every kernel
// of set. The returned image is the caller's.
func (s *Simulator) Aerial(mask *grid.Real, set *optics.KernelSet) *grid.Real {
	a := s.arenaFor(set)
	a.loadMask(mask)
	s.forward(a, 0, set, len(set.Kernels), nil)
	clear(a.inten[1])
	a.raise()
	intensity := grid.NewReal(s.N, s.N)
	for i, v := range a.packN.Data {
		intensity.Data[i] = real(v)
	}
	return intensity
}

// Sigmoid is the logistic function used by both resist and mask
// binarization models.
func Sigmoid(x float64) float64 {
	return logistic(x, expNeg(-math.Abs(x)))
}

// logistic is Sigmoid(x) given e = exp(−|x|), which never overflows.
func logistic(x, e float64) float64 {
	if x >= 0 {
		return 1 / (1 + e)
	}
	return e / (1 + e)
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
// at the three process corners. The result's grids are the caller's.
func (s *Simulator) Simulate(mask *grid.Real) *Result {
	focus, defocus := s.fetched()
	a := s.arenaFor(focus)
	a.loadMask(mask)
	s.forward(a, 0, focus, len(focus.Kernels), nil)
	s.forward(a, 1, defocus, len(defocus.Kernels), nil)
	a.raise()
	iNom, iDef := grid.NewReal(s.N, s.N), grid.NewReal(s.N, s.N)
	for i, v := range a.packN.Data {
		iNom.Data[i], iDef.Data[i] = real(v), imag(v)
	}
	return &Result{
		INom: iNom,
		IDef: iDef,
		ZNom: ResistBinary(iNom, 1.0),
		ZMax: ResistBinary(iDef, DoseMax),
		ZMin: ResistBinary(iDef, DoseMin),
	}
}

// DiffResult carries the differentiable losses of Equation (6) and their
// gradient with respect to the (continuous) mask. It belongs to the
// simulator that returned it and is valid until that simulator's next
// pass, which overwrites it: callers consume it (or copy GradM) first.
type DiffResult struct {
	L2    float64    // ‖Z_nom − T‖² with the sigmoid resist, in px²
	PVB   float64    // ‖Z_max − T‖² + ‖Z_min − T‖² surrogate, in px²
	Loss  float64    // wL2·L2 + wPVB·PVB
	GradM *grid.Real // d Loss / d mask
}

// LossGrad evaluates L = wL2·L2 + wPVB·PVB on the truncated kernel set and
// returns the exact gradient with respect to every mask pixel. This is the
// single entry point all pixel- and circle-level ILT engines differentiate
// through. Both process corners travel through the pixel-grid transforms
// as one complex image — nominal in the real part, defocus in the
// imaginary — and once its buffers exist a call allocates nothing.
func (s *Simulator) LossGrad(mask, target *grid.Real, wL2, wPVB float64) *DiffResult {
	return s.LossGradCols(mask, target, wL2, wPVB, 0, s.N)
}

// LossGradCols is LossGrad for a caller that reads the gradient only on
// the mask columns [x0, x1): the gradient's last inverse transforms those
// columns alone, which each come out == to LossGrad's, and GradM is zero
// on every other column. The loss is LossGrad's.
func (s *Simulator) LossGradCols(mask, target *grid.Real, wL2, wPVB float64, x0, x1 int) *DiffResult {
	if x0 < 0 || x1 > s.N || x0 > x1 {
		panic(fmt.Sprintf("litho: gradient columns [%d, %d) outside grid %d", x0, x1, s.N))
	}
	focus, defocus := s.fetched()
	a := s.arenaFor(focus)
	a.loadMask(mask)
	sets := [2]*optics.KernelSet{focus, defocus}
	kc := [2]int{s.kcount(focus, true), s.kcount(defocus, true)}
	if wPVB == 0 {
		kc[1] = 0 // the defocus corner is not simulated at all
	}
	fields := [2][]*grid.Complex{a.saved(0, kc[0]), a.saved(1, kc[1])}
	s.forward(a, 0, sets[0], kc[0], fields[0])
	s.forward(a, 1, sets[1], kc[1], fields[1])
	a.raise()

	// Sigmoid resist and loss at full resolution; each pixel's pair of
	// intensities is replaced by its pair of dL/dI. One defocus image
	// serves both dose corners.
	const dMax2 = DoseMax * DoseMax
	const dMin2 = DoseMin * DoseMin
	l2, pvb := 0.0, 0.0
	pack := a.packN.Data
	for i, t := range target.Data[:len(pack)] {
		xNom := ResistSteepness * (real(pack[i]) - Threshold)
		if wPVB == 0 {
			zNom := Sigmoid(xNom)
			d := zNom - t
			l2 += d * d
			pack[i] = complex(wL2*2*d*ResistSteepness*zNom*(1-zNom), 0)
			continue
		}
		// The three exponentials in one call, their chains interleaved; the
		// divisions that follow then overlap too.
		xMax := ResistSteepness * (dMax2*imag(pack[i]) - Threshold)
		xMin := ResistSteepness * (dMin2*imag(pack[i]) - Threshold)
		eNom, eMax, eMin := exp3(-math.Abs(xNom), -math.Abs(xMax), -math.Abs(xMin))
		zNom, zMax, zMin := logistic(xNom, eNom), logistic(xMax, eMax), logistic(xMin, eMin)
		d, dmax, dmin := zNom-t, zMax-t, zMin-t
		l2 += d * d
		pvb += dmax*dmax + dmin*dmin
		pack[i] = complex(wL2*2*d*ResistSteepness*zNom*(1-zNom),
			wPVB*2*ResistSteepness*(dmax*zMax*(1-zMax)*dMax2+dmin*zMin*(1-zMin)*dMin2))
	}
	res := &a.res
	*res = DiffResult{L2: l2, PVB: pvb, Loss: wL2*l2 + wPVB*pvb, GradM: a.gradM}

	s.backward(a, sets, kc, fields, x0, x1)
	return res
}
