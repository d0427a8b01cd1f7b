package uq

import (
	"fmt"
	"math"
)

// Rule1D is a one-dimensional quadrature rule in standard-normal space:
// nodes and weights such that Σ w_i f(x_i) ≈ E[f(Z)], Z ~ N(0,1).
type Rule1D struct {
	Nodes, Weights []float64
}

// GaussHermite returns the n-point Gauss–Hermite rule for the standard
// normal weight (probabilists' convention): Σ w_i f(x_i) ≈ E[f(Z)], Z~N(0,1).
// It integrates polynomials up to degree 2n−1 exactly (property-tested).
func GaussHermite(n int) (Rule1D, error) {
	if n < 1 || n > 64 {
		return Rule1D{}, fmt.Errorf("uq: Gauss–Hermite order %d outside 1..64", n)
	}
	r := Rule1D{Nodes: make([]float64, n), Weights: make([]float64, n)}
	// Newton iteration on the physicists' Hermite polynomial H_n with
	// standard asymptotic initial guesses, then transform to probabilists'
	// convention: x_prob = √2·x_phys, w_prob = w_phys/√π.
	for i := 0; i < (n+1)/2; i++ {
		var x float64
		switch i {
		case 0:
			x = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -1.0/6)
		case 1:
			x = r.nodePhys(0) - 1.14*math.Pow(float64(n), 0.426)/r.nodePhys(0)
		case 2:
			x = 1.86*r.nodePhys(1) - 0.86*r.nodePhys(0)
		case 3:
			x = 1.91*r.nodePhys(2) - 0.91*r.nodePhys(1)
		default:
			x = 2*r.nodePhys(i-1) - r.nodePhys(i-2)
		}
		var dp float64
		for iter := 0; iter < 100; iter++ {
			p, d := hermitePhys(n, x)
			dx := p / d
			x -= dx
			dp = d
			if math.Abs(dx) < 1e-15*(1+math.Abs(x)) {
				break
			}
		}
		r.Nodes[i] = x // store physicists' node temporarily (descending)
		// w_i = 2^{n-1} n! √π / (n² H_{n-1}(x)²); with H'_n = 2n H_{n-1}:
		// dp = H'_n(x) ⇒ H_{n-1} = dp/(2n).
		hnm1 := dp / (2 * float64(n))
		r.Weights[i] = math.Exp2(float64(n-1)) * factorial(n) * math.Sqrt(math.Pi) / (float64(n*n) * hnm1 * hnm1)
	}
	// Mirror symmetric nodes and convert conventions.
	for i := 0; i < (n+1)/2; i++ {
		xp, wp := r.Nodes[i], r.Weights[i]
		r.Nodes[i] = -xp * math.Sqrt2
		r.Nodes[n-1-i] = xp * math.Sqrt2
		w := wp / math.Sqrt(math.Pi)
		r.Weights[i] = w
		r.Weights[n-1-i] = w
	}
	if n%2 == 1 {
		r.Nodes[n/2] = 0
	}
	return r, nil
}

func (r Rule1D) nodePhys(i int) float64 { return r.Nodes[i] }

// hermitePhys evaluates the physicists' Hermite polynomial H_n and its
// derivative at x via the three-term recurrence.
func hermitePhys(n int, x float64) (p, dp float64) {
	p0, p1 := 1.0, 2*x
	if n == 0 {
		return 1, 0
	}
	for k := 2; k <= n; k++ {
		p0, p1 = p1, 2*x*p1-2*float64(k-1)*p0
	}
	return p1, 2 * float64(n) * p0
}

func factorial(n int) float64 {
	f := 1.0
	for i := 2; i <= n; i++ {
		f *= float64(i)
	}
	return f
}

// RuleFor returns the n-point Gauss–Hermite collocation rule for a normal
// law together with the rule nodes mapped to parameter values. Every input
// law of this code is normal; any other law is an error.
func RuleFor(dist Dist, n int) (Rule1D, []float64, error) {
	d, ok := dist.(Normal)
	if !ok {
		return Rule1D{}, nil, fmt.Errorf("uq: collocation needs a normal law, got %T", dist)
	}
	r, err := GaussHermite(n)
	if err != nil {
		return Rule1D{}, nil, err
	}
	params := make([]float64, n)
	for i, x := range r.Nodes {
		params[i] = d.Mu + d.Sigma*x
	}
	return r, params, nil
}
