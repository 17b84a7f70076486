//! Ground-truth environment fields.
//!
//! Each field is a deterministic function of position and time built from
//! a seeded sum of sinusoids: smooth enough to look physical, varied
//! enough that "the weather near the guest harbour" genuinely differs
//! from the weather at the marina — the premise of WeatherWatcher.

use radio::Position;
use simkit::{DetRng, SimTime};
use std::fmt;

/// An observable environmental quantity.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum EnvField {
    /// Air temperature in °C.
    TemperatureC,
    /// Wind speed in knots.
    WindKnots,
    /// Wind direction in degrees (0–360).
    WindDirDeg,
    /// Relative humidity in percent.
    HumidityPct,
    /// Atmospheric pressure in hPa.
    PressureHpa,
    /// Illuminance in lux.
    LightLux,
    /// Ambient noise in dB.
    NoiseDb,
}

impl EnvField {
    /// All fields, in a stable order.
    pub const ALL: [EnvField; 7] = [
        EnvField::TemperatureC,
        EnvField::WindKnots,
        EnvField::WindDirDeg,
        EnvField::HumidityPct,
        EnvField::PressureHpa,
        EnvField::LightLux,
        EnvField::NoiseDb,
    ];

    /// The context type name Contory queries use for this field.
    pub fn type_name(self) -> &'static str {
        match self {
            EnvField::TemperatureC => "temperature",
            EnvField::WindKnots => "wind",
            EnvField::WindDirDeg => "windDirection",
            EnvField::HumidityPct => "humidity",
            EnvField::PressureHpa => "pressure",
            EnvField::LightLux => "light",
            EnvField::NoiseDb => "noise",
        }
    }

    /// Unit suffix used in printable values.
    pub fn unit(self) -> &'static str {
        match self {
            EnvField::TemperatureC => "C",
            EnvField::WindKnots => "kn",
            EnvField::WindDirDeg => "deg",
            EnvField::HumidityPct => "%",
            EnvField::PressureHpa => "hPa",
            EnvField::LightLux => "lux",
            EnvField::NoiseDb => "dB",
        }
    }

    fn base_and_amplitude(self) -> (f64, f64) {
        match self {
            EnvField::TemperatureC => (16.0, 6.0),
            EnvField::WindKnots => (8.0, 6.0),
            EnvField::WindDirDeg => (180.0, 160.0),
            EnvField::HumidityPct => (70.0, 20.0),
            EnvField::PressureHpa => (1013.0, 12.0),
            EnvField::LightLux => (5_000.0, 4_800.0),
            EnvField::NoiseDb => (45.0, 20.0),
        }
    }

    fn clamp(self, v: f64) -> f64 {
        match self {
            EnvField::WindKnots | EnvField::LightLux => v.max(0.0),
            EnvField::HumidityPct => v.clamp(0.0, 100.0),
            EnvField::WindDirDeg => v.rem_euclid(360.0),
            _ => v,
        }
    }
}

impl fmt::Display for EnvField {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.type_name())
    }
}

#[derive(Clone, Debug)]
struct Wave {
    kx: f64,
    ky: f64,
    omega: f64,
    phase: f64,
    weight: f64,
}

/// Deterministic ground-truth fields over space and time.
///
/// ```
/// use sensors::{EnvField, Environment};
/// use radio::Position;
/// use simkit::SimTime;
///
/// let env = Environment::new(2005);
/// let here = env.sample(EnvField::TemperatureC, Position::new(0.0, 0.0), SimTime::ZERO);
/// let same = env.sample(EnvField::TemperatureC, Position::new(0.0, 0.0), SimTime::ZERO);
/// assert_eq!(here, same); // ground truth is a pure function
/// ```
#[derive(Clone, Debug)]
pub struct Environment {
    seed: u64,
    waves: Vec<(EnvField, Vec<Wave>)>,
}

impl Environment {
    /// Number of sinusoid components per field.
    const COMPONENTS: usize = 4;

    /// Creates an environment from a seed.
    pub fn new(seed: u64) -> Self {
        let mut rng = DetRng::new(seed ^ 0x5eed_f1e1d);
        let mut waves = Vec::new();
        for field in EnvField::ALL {
            let mut comps = Vec::new();
            for i in 0..Self::COMPONENTS {
                // Wavelengths from ~200 m to ~20 km; periods from ~10 min
                // to ~6 h. Weights decay so large scales dominate.
                let wavelength = rng.range_f64(200.0, 20_000.0);
                let period_s = rng.range_f64(600.0, 21_600.0);
                let dir = rng.range_f64(0.0, std::f64::consts::TAU);
                comps.push(Wave {
                    kx: dir.cos() * std::f64::consts::TAU / wavelength,
                    ky: dir.sin() * std::f64::consts::TAU / wavelength,
                    omega: std::f64::consts::TAU / period_s,
                    phase: rng.range_f64(0.0, std::f64::consts::TAU),
                    weight: 1.0 / (i + 1) as f64,
                });
            }
            waves.push((field, comps));
        }
        Environment { seed, waves }
    }

    /// The seed this environment was built from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Ground-truth value of `field` at a position and time.
    pub fn sample(&self, field: EnvField, pos: Position, t: SimTime) -> f64 {
        let (base, amplitude) = field.base_and_amplitude();
        let comps = &self
            .waves
            .iter()
            .find(|(f, _)| *f == field)
            .expect("every field has waves")
            .1;
        let weight_sum: f64 = comps.iter().map(|w| w.weight).sum();
        let ts = t.as_secs_f64();
        let mut v = 0.0;
        for w in comps {
            v += w.weight * (w.kx * pos.x + w.ky * pos.y + w.omega * ts + w.phase).sin();
        }
        field.clamp(base + amplitude * v / weight_sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::SimDuration;

    #[test]
    fn deterministic_per_seed() {
        let a = Environment::new(7);
        let b = Environment::new(7);
        let c = Environment::new(8);
        let p = Position::new(123.0, 456.0);
        let t = SimTime::from_secs(100);
        assert_eq!(
            a.sample(EnvField::WindKnots, p, t),
            b.sample(EnvField::WindKnots, p, t)
        );
        assert_ne!(
            a.sample(EnvField::WindKnots, p, t),
            c.sample(EnvField::WindKnots, p, t)
        );
    }

    #[test]
    fn fields_stay_in_physical_ranges() {
        let env = Environment::new(42);
        let mut rng = simkit::DetRng::new(1);
        for _ in 0..500 {
            let p = Position::new(rng.range_f64(-50e3, 50e3), rng.range_f64(-50e3, 50e3));
            let t = SimTime::from_secs(rng.range_u64(0, 86_400));
            let h = env.sample(EnvField::HumidityPct, p, t);
            assert!((0.0..=100.0).contains(&h), "humidity {h}");
            assert!(env.sample(EnvField::WindKnots, p, t) >= 0.0);
            assert!(env.sample(EnvField::LightLux, p, t) >= 0.0);
            let d = env.sample(EnvField::WindDirDeg, p, t);
            assert!((0.0..360.0).contains(&d), "direction {d}");
            let temp = env.sample(EnvField::TemperatureC, p, t);
            assert!((-10.0..40.0).contains(&temp), "temperature {temp}");
        }
    }

    #[test]
    fn varies_over_space_and_time() {
        let env = Environment::new(42);
        let t = SimTime::ZERO;
        let a = env.sample(EnvField::TemperatureC, Position::new(0.0, 0.0), t);
        let b = env.sample(EnvField::TemperatureC, Position::new(15_000.0, 0.0), t);
        assert!((a - b).abs() > 0.01, "space variation {a} vs {b}");
        let later = t + SimDuration::from_hours(3);
        let c = env.sample(EnvField::TemperatureC, Position::new(0.0, 0.0), later);
        assert!((a - c).abs() > 0.01, "time variation {a} vs {c}");
    }

    #[test]
    fn nearby_points_are_similar() {
        // Smoothness: 10 m apart should read almost identically.
        let env = Environment::new(42);
        let t = SimTime::from_secs(1000);
        let a = env.sample(EnvField::PressureHpa, Position::new(500.0, 500.0), t);
        let b = env.sample(EnvField::PressureHpa, Position::new(510.0, 500.0), t);
        assert!((a - b).abs() < 1.0, "{a} vs {b}");
    }

    #[test]
    fn type_names_match_contory_vocabulary() {
        assert_eq!(EnvField::TemperatureC.type_name(), "temperature");
        assert_eq!(EnvField::WindKnots.type_name(), "wind");
        assert_eq!(EnvField::ALL.len(), 7);
    }
}
