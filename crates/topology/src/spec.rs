//! The shared `--topology` grammar: one [`TopologySpec`] parsed and
//! printed identically by the CLI, the server `JobSpec`, and the
//! experiment harness, so the three surfaces can never drift.
//!
//! # Grammar
//!
//! Same DSL style as `--failure` / `--churn`: a family name, optionally
//! followed by `:` and comma-separated `key=value` parameters.
//!
//! ```text
//! clique
//! ring
//! torus
//! random-regular:d=8
//! ring-gradient:alpha=2,span=8
//! ring-gaussian:sigma=8
//! chung-lu:dmin=2,dmax=100,gamma=2.5
//! ```
//!
//! Omitted parameters take the defaults shown above.  [`Display`] prints
//! the **canonical form** — every parameter spelled out, fixed order,
//! shortest-round-trip float formatting — so
//! `parse(spec.to_string()) == spec` always holds (pinned by proptest),
//! and cache keys derived from the canonical form are collision-free
//! across spelling variants (`chung-lu` ==
//! `chung-lu:dmin=2,dmax=100,gamma=2.5`).

use crate::graph::Topology;
use crate::implicit::{ChungLu, ImplicitRing};
use crate::models::{random_regular, ring, torus, Clique};
use std::fmt::{self, Display};

/// XOR salt folded into the master seed before wiring seeded topologies,
/// so graph construction and trial streams never share a raw seed.
pub const TOPOLOGY_SALT: u64 = 0x70B0;

/// Default degree for `random-regular` when `d` is omitted.
pub const DEFAULT_REGULAR_DEGREE: usize = 8;

/// A parsed `--topology` value: which family, with which parameters.
///
/// This is the *specification* — node count and wiring seed are
/// supplied at [`TopologySpec::build`] time, so one spec can be reused
/// across sizes (the experiment grids do exactly that).
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySpec {
    /// The paper's model: self-inclusive uniform sampling over all `n`.
    Clique,
    /// Cycle graph (each node's two ring neighbors), materialized CSR.
    Ring,
    /// Near-square torus (4-regular grid with wraparound), CSR.
    Torus,
    /// Uniform random `d`-regular graph, wired from the salted seed.
    RandomRegular {
        /// Node degree (`d` in the DSL).
        degree: usize,
    },
    /// Implicit ring, polynomial-decay distance kernel `d^(−alpha)`
    /// truncated at `span` (see [`ImplicitRing::gradient`]).
    RingGradient {
        /// Kernel decay exponent (`alpha ≥ 0`).
        alpha: f64,
        /// One-sided truncation distance (`span ≥ 1`).
        span: usize,
    },
    /// Implicit ring, Gaussian distance kernel of width `sigma` (see
    /// [`ImplicitRing::gaussian`]).
    RingGaussian {
        /// Kernel width (`sigma > 0`).
        sigma: f64,
    },
    /// Implicit Chung–Lu power-law degree sequence (see
    /// [`ChungLu::power_law`]).
    ChungLu {
        /// Minimum expected degree (`dmin > 0`).
        dmin: f64,
        /// Maximum expected degree (`dmax ≥ dmin`).
        dmax: f64,
        /// Degree-distribution tail exponent (`gamma > 1`).
        gamma: f64,
    },
}

impl TopologySpec {
    /// Every family name, for help text and error messages.
    pub const FAMILIES: &'static [&'static str] = &[
        "clique",
        "ring",
        "torus",
        "random-regular",
        "ring-gradient",
        "ring-gaussian",
        "chung-lu",
    ];

    /// Parse a DSL string (see the module docs for the grammar).
    pub fn parse(spec: &str) -> Result<Self, String> {
        Self::parse_with_degree(spec, DEFAULT_REGULAR_DEGREE)
    }

    /// Like [`TopologySpec::parse`], with a caller-supplied default for
    /// `random-regular`'s degree — the legacy `--degree D` flag and the
    /// server spec's `"degree"` wire key feed in here; an explicit
    /// `random-regular:d=…` parameter still wins.
    pub fn parse_with_degree(spec: &str, default_degree: usize) -> Result<Self, String> {
        let spec = spec.trim();
        let (name, params) = match spec.split_once(':') {
            Some((name, params)) => (name.trim(), Some(params)),
            None => (spec, None),
        };
        let items = |params: Option<&str>| -> Result<Vec<(String, String)>, String> {
            let Some(params) = params else {
                return Ok(Vec::new());
            };
            params
                .split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|item| {
                    let (k, v) = item
                        .split_once('=')
                        .ok_or_else(|| format!("{name}: expected key=value, got '{item}'"))?;
                    Ok((k.trim().to_string(), v.trim().to_string()))
                })
                .collect()
        };
        let parsed = match name {
            "clique" => {
                reject_params(name, params)?;
                Self::Clique
            }
            "ring" => {
                reject_params(name, params)?;
                Self::Ring
            }
            "torus" => {
                reject_params(name, params)?;
                Self::Torus
            }
            "random-regular" => {
                let mut degree = default_degree;
                for (k, v) in items(params)? {
                    match k.as_str() {
                        "d" => degree = parse_num::<usize>(name, "d", &v)?,
                        _ => return Err(unknown_key(name, &k, &["d"])),
                    }
                }
                if degree == 0 {
                    return Err(format!("{name}: d must be positive"));
                }
                Self::RandomRegular { degree }
            }
            "ring-gradient" => {
                let (mut alpha, mut span) = (2.0, 8usize);
                for (k, v) in items(params)? {
                    match k.as_str() {
                        "alpha" => alpha = parse_num::<f64>(name, "alpha", &v)?,
                        "span" => span = parse_num::<usize>(name, "span", &v)?,
                        _ => return Err(unknown_key(name, &k, &["alpha", "span"])),
                    }
                }
                if !alpha.is_finite() || alpha < 0.0 {
                    return Err(format!(
                        "{name}: alpha must be finite and >= 0, got {alpha}"
                    ));
                }
                if span == 0 {
                    return Err(format!("{name}: span must be positive"));
                }
                Self::RingGradient { alpha, span }
            }
            "ring-gaussian" => {
                let mut sigma = 8.0;
                for (k, v) in items(params)? {
                    match k.as_str() {
                        "sigma" => sigma = parse_num::<f64>(name, "sigma", &v)?,
                        _ => return Err(unknown_key(name, &k, &["sigma"])),
                    }
                }
                if !sigma.is_finite() || sigma <= 0.0 {
                    return Err(format!("{name}: sigma must be finite and > 0, got {sigma}"));
                }
                Self::RingGaussian { sigma }
            }
            "chung-lu" => {
                let (mut dmin, mut dmax, mut gamma) = (2.0, 100.0, 2.5);
                for (k, v) in items(params)? {
                    match k.as_str() {
                        "dmin" => dmin = parse_num::<f64>(name, "dmin", &v)?,
                        "dmax" => dmax = parse_num::<f64>(name, "dmax", &v)?,
                        "gamma" => gamma = parse_num::<f64>(name, "gamma", &v)?,
                        _ => return Err(unknown_key(name, &k, &["dmin", "dmax", "gamma"])),
                    }
                }
                if !dmin.is_finite() || dmin <= 0.0 {
                    return Err(format!("{name}: dmin must be finite and > 0, got {dmin}"));
                }
                if !dmax.is_finite() || dmax < dmin {
                    return Err(format!(
                        "{name}: dmax must be finite and >= dmin, got {dmax}"
                    ));
                }
                if !gamma.is_finite() || gamma <= 1.0 {
                    return Err(format!("{name}: gamma must be finite and > 1, got {gamma}"));
                }
                Self::ChungLu { dmin, dmax, gamma }
            }
            other => {
                return Err(format!(
                    "unknown topology '{other}' (expected one of: {})",
                    Self::FAMILIES.join(", ")
                ));
            }
        };
        Ok(parsed)
    }

    /// The bare family name (canonical form without parameters).
    #[must_use]
    pub fn family(&self) -> &'static str {
        match self {
            Self::Clique => "clique",
            Self::Ring => "ring",
            Self::Torus => "torus",
            Self::RandomRegular { .. } => "random-regular",
            Self::RingGradient { .. } => "ring-gradient",
            Self::RingGaussian { .. } => "ring-gaussian",
            Self::ChungLu { .. } => "chung-lu",
        }
    }

    /// Is this an implicit (non-materialized) family — O(n) state, no
    /// dense edge slots, no indexed neighbor access?
    #[must_use]
    pub fn is_implicit(&self) -> bool {
        matches!(
            self,
            Self::RingGradient { .. } | Self::RingGaussian { .. } | Self::ChungLu { .. }
        )
    }

    /// Instantiate the topology at `n` nodes.  `seed` is the *master*
    /// seed; families that wire randomly fold in [`TOPOLOGY_SALT`]
    /// before seeding (implicit families and the deterministic lattices
    /// ignore it entirely — their construction consumes no randomness).
    pub fn build(&self, n: usize, seed: u64) -> Result<Box<dyn Topology>, String> {
        Ok(match *self {
            Self::Clique => {
                if n == 0 {
                    return Err("topology clique needs n >= 1, got 0".into());
                }
                Box::new(Clique::new(n))
            }
            Self::Ring => {
                if n < 3 {
                    return Err(format!("topology ring needs n >= 3, got {n}"));
                }
                Box::new(ring(n))
            }
            Self::Torus => {
                let (w, h) = near_square_factors(n).ok_or(format!(
                    "topology torus needs n = w*h with both sides >= 3, got n = {n}"
                ))?;
                Box::new(torus(w, h))
            }
            Self::RandomRegular { degree } => {
                if degree >= n || !(n * degree).is_multiple_of(2) {
                    return Err(format!(
                        "topology random-regular needs degree < n and n*degree even \
                         (n = {n}, degree = {degree})"
                    ));
                }
                Box::new(random_regular(n, degree, seed ^ TOPOLOGY_SALT))
            }
            Self::RingGradient { alpha, span } => {
                if 2 * span > n.saturating_sub(1) {
                    return Err(format!(
                        "topology ring-gradient needs 2*span <= n-1 (n = {n}, span = {span})"
                    ));
                }
                Box::new(ImplicitRing::gradient(n, alpha, span))
            }
            Self::RingGaussian { sigma } => {
                if n < 3 {
                    return Err(format!("topology ring-gaussian needs n >= 3, got {n}"));
                }
                Box::new(ImplicitRing::gaussian(n, sigma))
            }
            Self::ChungLu { dmin, dmax, gamma } => {
                if n < 2 {
                    return Err(format!("topology chung-lu needs n >= 2, got {n}"));
                }
                Box::new(ChungLu::power_law(n, dmin, dmax, gamma))
            }
        })
    }

    /// Cache key identifying the topology this spec builds at `(n,
    /// seed)`: the canonical [`Display`] form plus `n`, plus the salted
    /// wiring seed for the one family whose construction is seeded
    /// (`random-regular`).  Deterministic lattices and implicit families
    /// are construction-deterministic, so their keys are seed-free —
    /// two jobs at different seeds share the cached object, exactly as
    /// two CLI invocations would rebuild the identical graph.
    #[must_use]
    pub fn cache_key(&self, n: usize, seed: u64) -> String {
        match self {
            Self::RandomRegular { .. } => {
                format!("{self}:n={n}:wiring={}", seed ^ TOPOLOGY_SALT)
            }
            _ => format!("{self}:n={n}"),
        }
    }
}

impl Display for TopologySpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Self::Clique | Self::Ring | Self::Torus => write!(f, "{}", self.family()),
            Self::RandomRegular { degree } => write!(f, "random-regular:d={degree}"),
            Self::RingGradient { alpha, span } => {
                write!(f, "ring-gradient:alpha={alpha},span={span}")
            }
            Self::RingGaussian { sigma } => write!(f, "ring-gaussian:sigma={sigma}"),
            Self::ChungLu { dmin, dmax, gamma } => {
                write!(f, "chung-lu:dmin={dmin},dmax={dmax},gamma={gamma}")
            }
        }
    }
}

fn reject_params(name: &str, params: Option<&str>) -> Result<(), String> {
    match params {
        None => Ok(()),
        Some(p) => Err(format!("{name}: takes no parameters, got '{p}'")),
    }
}

fn unknown_key(name: &str, key: &str, known: &[&str]) -> String {
    format!(
        "{name}: unknown key '{key}' (expected {})",
        known.join(", ")
    )
}

fn parse_num<T: std::str::FromStr>(name: &str, key: &str, v: &str) -> Result<T, String> {
    v.parse::<T>()
        .map_err(|_| format!("{name}: {key} must be a number, got '{v}'"))
}

/// The largest divisor pair `(w, h)` of `n` with both sides ≥ 3 and `w`
/// closest to `√n` — the torus shape used for `topology = torus`.
#[must_use]
pub fn near_square_factors(n: usize) -> Option<(usize, usize)> {
    let mut w = (n as f64).sqrt().floor() as usize;
    while w >= 3 {
        if n.is_multiple_of(w) && n / w >= 3 {
            return Some((w, n / w));
        }
        w -= 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::downcast_topology;
    use crate::graph::CsrGraph;

    #[test]
    fn bare_names_parse_with_defaults() {
        assert_eq!(TopologySpec::parse("clique").unwrap(), TopologySpec::Clique);
        assert_eq!(
            TopologySpec::parse("random-regular").unwrap(),
            TopologySpec::RandomRegular { degree: 8 }
        );
        assert_eq!(
            TopologySpec::parse("ring-gradient").unwrap(),
            TopologySpec::RingGradient {
                alpha: 2.0,
                span: 8
            }
        );
        assert_eq!(
            TopologySpec::parse("ring-gaussian").unwrap(),
            TopologySpec::RingGaussian { sigma: 8.0 }
        );
        assert_eq!(
            TopologySpec::parse("chung-lu").unwrap(),
            TopologySpec::ChungLu {
                dmin: 2.0,
                dmax: 100.0,
                gamma: 2.5
            }
        );
    }

    #[test]
    fn parameters_override_defaults_in_any_order() {
        assert_eq!(
            TopologySpec::parse("ring-gradient:span=16,alpha=1.5").unwrap(),
            TopologySpec::RingGradient {
                alpha: 1.5,
                span: 16
            }
        );
        assert_eq!(
            TopologySpec::parse("chung-lu:gamma=3").unwrap(),
            TopologySpec::ChungLu {
                dmin: 2.0,
                dmax: 100.0,
                gamma: 3.0
            }
        );
    }

    #[test]
    fn legacy_degree_feeds_random_regular_but_explicit_wins() {
        assert_eq!(
            TopologySpec::parse_with_degree("random-regular", 6).unwrap(),
            TopologySpec::RandomRegular { degree: 6 }
        );
        assert_eq!(
            TopologySpec::parse_with_degree("random-regular:d=10", 6).unwrap(),
            TopologySpec::RandomRegular { degree: 10 }
        );
        // The default-degree channel never leaks into other families.
        assert_eq!(
            TopologySpec::parse_with_degree("clique", 6).unwrap(),
            TopologySpec::Clique
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "mesh",
            "clique:d=3",
            "random-regular:degree=8",
            "ring-gradient:alpha=x",
            "ring-gradient:span=0",
            "ring-gaussian:sigma=-1",
            "chung-lu:gamma=1",
            "chung-lu:dmin=0",
            "chung-lu:dmax=1",
            "random-regular:d=0",
            "ring-gradient:alpha",
        ] {
            assert!(TopologySpec::parse(bad).is_err(), "'{bad}' should fail");
        }
    }

    #[test]
    fn display_is_canonical_and_round_trips() {
        for (input, canonical) in [
            ("clique", "clique"),
            (" ring ", "ring"),
            ("random-regular", "random-regular:d=8"),
            ("random-regular:d=6", "random-regular:d=6"),
            (
                "ring-gradient:span=16,alpha=1.5",
                "ring-gradient:alpha=1.5,span=16",
            ),
            ("ring-gaussian", "ring-gaussian:sigma=8"),
            ("chung-lu:gamma=3", "chung-lu:dmin=2,dmax=100,gamma=3"),
        ] {
            let spec = TopologySpec::parse(input).unwrap();
            assert_eq!(spec.to_string(), canonical);
            assert_eq!(TopologySpec::parse(canonical).unwrap(), spec);
        }
    }

    #[test]
    fn build_dispatches_to_the_right_family() {
        let g = TopologySpec::parse("random-regular:d=4")
            .unwrap()
            .build(100, 7)
            .unwrap();
        let csr = downcast_topology::<CsrGraph>(&*g).expect("materialized CSR");
        assert_eq!(csr.regular_degree(), Some(4));

        let imp = TopologySpec::parse("ring-gradient:alpha=2,span=4")
            .unwrap()
            .build(100, 7)
            .unwrap();
        assert!(downcast_topology::<crate::ImplicitRing>(&*imp).is_some());
        assert_eq!(imp.degree(0), 8);

        let cl = TopologySpec::parse("chung-lu")
            .unwrap()
            .build(50, 7)
            .unwrap();
        assert!(downcast_topology::<crate::ChungLu>(&*cl).is_some());
    }

    #[test]
    fn build_validates_size_constraints() {
        for (spec, n) in [
            ("clique", 0),
            ("ring", 2),
            ("torus", 7),
            ("random-regular:d=3", 3),
            ("ring-gradient:span=5", 10),
            ("chung-lu", 1),
        ] {
            assert!(
                TopologySpec::parse(spec).unwrap().build(n, 1).is_err(),
                "{spec} at n={n} should fail"
            );
        }
    }

    #[test]
    fn cache_keys_use_canonical_form_and_salt_only_seeded_wiring() {
        let rr = TopologySpec::parse("random-regular:d=6").unwrap();
        assert_ne!(rr.cache_key(100, 1), rr.cache_key(100, 2), "seeded wiring");
        let grad = TopologySpec::parse("ring-gradient").unwrap();
        assert_eq!(
            grad.cache_key(100, 1),
            grad.cache_key(100, 2),
            "implicit construction is seed-free"
        );
        // Spelling variants collapse onto one canonical key.
        assert_eq!(
            TopologySpec::parse("chung-lu").unwrap().cache_key(10, 0),
            TopologySpec::parse("chung-lu:gamma=2.5,dmax=100,dmin=2")
                .unwrap()
                .cache_key(10, 0)
        );
    }

    #[test]
    fn near_square_factors_finds_torus_shapes() {
        assert_eq!(near_square_factors(100), Some((10, 10)));
        assert_eq!(near_square_factors(12), Some((3, 4)));
        assert_eq!(near_square_factors(7), None);
    }
}
