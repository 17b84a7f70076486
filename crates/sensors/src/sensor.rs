//! Noisy sensors over the ground-truth environment.

use crate::env::{EnvField, Environment};
use radio::Position;
use simkit::{DetRng, SimTime};
use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// One sensor observation.
#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    /// Context type name (`"temperature"`, `"wind"`, …).
    pub quantity: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit suffix.
    pub unit: &'static str,
    /// Observation time.
    pub timestamp: SimTime,
    /// 1-σ accuracy of the measurement in the value's unit.
    pub accuracy: f64,
    /// Where the observation was made, if georeferenced.
    pub position: Option<Position>,
}

impl Reading {
    /// Printable value, e.g. `"14.3C"`.
    pub fn value_text(&self) -> String {
        format!("{:.1}{}", self.value, self.unit)
    }
}

impl fmt::Display for Reading {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}={} (±{:.2}) @ {}",
            self.quantity,
            self.value_text(),
            self.accuracy,
            self.timestamp
        )
    }
}

/// Source of the sensor's current position (boats move).
pub type PositionSource = Rc<dyn Fn() -> Position>;

/// A sensor measuring one environment field with Gaussian noise.
///
/// ```
/// use sensors::{EnvField, EnvSensor, Environment};
/// use radio::Position;
/// use simkit::SimTime;
/// use std::rc::Rc;
///
/// let env = Environment::new(1);
/// let mut s = EnvSensor::fixed(&env, EnvField::TemperatureC, Position::ORIGIN, 0.2, 7);
/// let r = s.sample(SimTime::ZERO);
/// assert_eq!(r.quantity, "temperature");
/// assert_eq!(r.accuracy, 0.2);
/// ```
pub struct EnvSensor {
    env: Environment,
    field: EnvField,
    position: PositionSource,
    accuracy: f64,
    rng: DetRng,
    /// Dropout switch (fault injection): when `false`, the sensor is
    /// dead and [`EnvSensor::try_sample`] yields nothing.
    online: Cell<bool>,
}

impl EnvSensor {
    /// Creates a sensor whose position is supplied by a closure.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy` is negative.
    pub fn new(
        env: &Environment,
        field: EnvField,
        position: PositionSource,
        accuracy: f64,
        seed: u64,
    ) -> Self {
        assert!(accuracy >= 0.0, "accuracy must be non-negative");
        EnvSensor {
            env: env.clone(),
            field,
            position,
            accuracy,
            rng: DetRng::new(seed ^ 0x5e45),
            online: Cell::new(true),
        }
    }

    /// Creates a stationary sensor.
    pub fn fixed(
        env: &Environment,
        field: EnvField,
        position: Position,
        accuracy: f64,
        seed: u64,
    ) -> Self {
        EnvSensor::new(env, field, Rc::new(move || position), accuracy, seed)
    }

    /// The measured field.
    pub fn field(&self) -> EnvField {
        self.field
    }

    /// Whether the sensor is currently delivering readings.
    pub fn is_online(&self) -> bool {
        self.online.get()
    }

    /// Flips the dropout switch (fault injection). An offline sensor
    /// keeps its state and noise stream; only delivery stops.
    pub fn set_online(&self, up: bool) {
        self.online.set(up);
    }

    /// Fault-aware sampling: `None` while the sensor is offline.
    ///
    /// The underlying noise stream does *not* advance while offline, so
    /// an outage window shifts — but never reshapes — the reading
    /// sequence, keeping scenarios deterministic.
    pub fn try_sample(&mut self, now: SimTime) -> Option<Reading> {
        if self.online.get() {
            Some(self.sample(now))
        } else {
            None
        }
    }

    /// Takes a reading at `now`: ground truth plus Gaussian noise at the
    /// sensor's accuracy.
    pub fn sample(&mut self, now: SimTime) -> Reading {
        let pos = (self.position)();
        let truth = self.env.sample(self.field, pos, now);
        let noisy = self.rng.gauss(truth, self.accuracy);
        let value = self.field_clamp(noisy);
        Reading {
            quantity: self.field.type_name(),
            value,
            unit: self.field.unit(),
            timestamp: now,
            accuracy: self.accuracy,
            position: Some(pos),
        }
    }

    fn field_clamp(&self, v: f64) -> f64 {
        match self.field {
            EnvField::WindKnots | EnvField::LightLux => v.max(0.0),
            EnvField::HumidityPct => v.clamp(0.0, 100.0),
            EnvField::WindDirDeg => v.rem_euclid(360.0),
            _ => v,
        }
    }
}

impl fmt::Debug for EnvSensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EnvSensor")
            .field("field", &self.field)
            .field("accuracy", &self.accuracy)
            .finish()
    }
}

/// An "official" weather station: a fixed multi-field observer whose
/// readings the infrastructure republishes (the less-fresh source
/// WeatherWatcher compares against live boats).
pub struct WeatherStation {
    /// Station identity (e.g. `"fmi-harmaja"`).
    pub name: String,
    sensors: Vec<EnvSensor>,
    position: Position,
}

impl WeatherStation {
    /// Creates a station at a fixed position observing the given fields
    /// with professional-grade accuracy.
    pub fn new(
        name: impl Into<String>,
        env: &Environment,
        position: Position,
        fields: &[EnvField],
        seed: u64,
    ) -> Self {
        let sensors = fields
            .iter()
            .enumerate()
            .map(|(i, &f)| EnvSensor::fixed(env, f, position, station_accuracy(f), seed + i as u64))
            .collect();
        WeatherStation {
            name: name.into(),
            sensors,
            position,
        }
    }

    /// Station position.
    pub fn position(&self) -> Position {
        self.position
    }

    /// Takes one reading per configured *online* field (offline sensors
    /// are skipped — see [`WeatherStation::set_online`]).
    pub fn observe(&mut self, now: SimTime) -> Vec<Reading> {
        self.sensors
            .iter_mut()
            .filter_map(|s| s.try_sample(now))
            .collect()
    }

    /// Flips the dropout switch of *every* sensor at once (a station
    /// power failure).
    pub fn set_online(&self, up: bool) {
        for s in &self.sensors {
            s.set_online(up);
        }
    }
}

impl fmt::Debug for WeatherStation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WeatherStation")
            .field("name", &self.name)
            .field("fields", &self.sensors.len())
            .finish()
    }
}

fn station_accuracy(field: EnvField) -> f64 {
    match field {
        EnvField::TemperatureC => 0.1,
        EnvField::WindKnots => 0.5,
        EnvField::WindDirDeg => 5.0,
        EnvField::HumidityPct => 2.0,
        EnvField::PressureHpa => 0.3,
        EnvField::LightLux => 50.0,
        EnvField::NoiseDb => 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_track_ground_truth() {
        let env = Environment::new(11);
        let mut s = EnvSensor::fixed(&env, EnvField::TemperatureC, Position::ORIGIN, 0.2, 3);
        let t = SimTime::from_secs(500);
        let truth = env.sample(EnvField::TemperatureC, Position::ORIGIN, t);
        let mean: f64 = (0..200).map(|_| s.sample(t).value).sum::<f64>() / 200.0;
        assert!((mean - truth).abs() < 0.1, "mean {mean} truth {truth}");
    }

    #[test]
    fn moving_sensor_follows_position_source() {
        use std::cell::Cell;
        let env = Environment::new(11);
        let pos = Rc::new(Cell::new(Position::new(0.0, 0.0)));
        let p = pos.clone();
        let mut s = EnvSensor::new(&env, EnvField::NoiseDb, Rc::new(move || p.get()), 0.0, 3);
        let a = s.sample(SimTime::ZERO);
        pos.set(Position::new(18_000.0, -9_000.0));
        let b = s.sample(SimTime::ZERO);
        assert_eq!(a.position.unwrap(), Position::new(0.0, 0.0));
        assert_eq!(b.position.unwrap(), Position::new(18_000.0, -9_000.0));
        assert_ne!(a.value, b.value);
    }

    #[test]
    fn zero_accuracy_is_exact() {
        let env = Environment::new(11);
        let mut s = EnvSensor::fixed(&env, EnvField::PressureHpa, Position::ORIGIN, 0.0, 3);
        let t = SimTime::from_secs(42);
        assert_eq!(
            s.sample(t).value,
            env.sample(EnvField::PressureHpa, Position::ORIGIN, t)
        );
    }

    #[test]
    fn reading_display_and_text() {
        let r = Reading {
            quantity: "temperature",
            value: 14.04,
            unit: "C",
            timestamp: SimTime::ZERO,
            accuracy: 0.2,
            position: None,
        };
        assert_eq!(r.value_text(), "14.0C");
        assert!(r.to_string().contains("temperature=14.0C"));
    }

    #[test]
    fn station_observes_all_fields() {
        let env = Environment::new(11);
        let mut st = WeatherStation::new(
            "fmi-harmaja",
            &env,
            Position::new(1_000.0, 2_000.0),
            &[
                EnvField::TemperatureC,
                EnvField::WindKnots,
                EnvField::PressureHpa,
            ],
            9,
        );
        let obs = st.observe(SimTime::from_secs(60));
        assert_eq!(obs.len(), 3);
        assert!(obs.iter().all(|r| r.position == Some(st.position())));
        let quantities: Vec<&str> = obs.iter().map(|r| r.quantity).collect();
        assert_eq!(quantities, vec!["temperature", "wind", "pressure"]);
    }

    #[test]
    fn dropout_stops_and_resumes_delivery() {
        let env = Environment::new(11);
        let mut s = EnvSensor::fixed(&env, EnvField::TemperatureC, Position::ORIGIN, 0.2, 3);
        let t = SimTime::from_secs(10);
        assert!(s.is_online());
        assert!(s.try_sample(t).is_some());
        s.set_online(false);
        assert!(!s.is_online());
        assert!(s.try_sample(t).is_none());
        // The noise stream did not advance while offline: the next
        // reading equals what a never-offline twin would produce.
        let mut twin = EnvSensor::fixed(&env, EnvField::TemperatureC, Position::ORIGIN, 0.2, 3);
        let _ = twin.sample(t); // mirror the one pre-outage sample
        s.set_online(true);
        assert_eq!(s.try_sample(t).unwrap().value, twin.sample(t).value);
    }

    #[test]
    fn station_dropout_skips_fields() {
        let env = Environment::new(11);
        let mut st = WeatherStation::new(
            "fmi-harmaja",
            &env,
            Position::ORIGIN,
            &[EnvField::TemperatureC, EnvField::WindKnots],
            9,
        );
        st.sensors[1].set_online(false); // wind
        let obs = st.observe(SimTime::from_secs(60));
        assert_eq!(obs.len(), 1);
        assert_eq!(obs[0].quantity, "temperature");
        st.set_online(false);
        assert!(st.observe(SimTime::from_secs(61)).is_empty());
        st.set_online(true);
        assert_eq!(st.observe(SimTime::from_secs(62)).len(), 2);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_accuracy_panics() {
        let env = Environment::new(1);
        let _ = EnvSensor::fixed(&env, EnvField::NoiseDb, Position::ORIGIN, -1.0, 1);
    }
}
