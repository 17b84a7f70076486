//! GPS receiver and NMEA 0183 sentence generation.
//!
//! The field trials used a "Bluetooth GPS Receiver InsSirf III"; its data
//! path matters to the energy results because a GPS-NMEA burst is **340
//! bytes** (vs a 53–136-byte context item) and BT's packet segmentation
//! makes larger periodic payloads disproportionately expensive (Table 2:
//! 0.422 J vs 0.099 J per item).

use radio::Position;
use simkit::{DetRng, SimTime};
use std::fmt;
use std::rc::Rc;

/// Fix state of the receiver.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum GpsFix {
    /// Receiver off or no satellites.
    #[default]
    NoFix,
    /// Position valid.
    Fix3D,
}

/// Reference latitude/longitude of the world origin (Helsinki south
/// harbour — where the DYNAMOS regatta sailed).
const ORIGIN_LAT: f64 = 60.15;
const ORIGIN_LON: f64 = 24.95;
/// Metres per degree of latitude / of longitude at 60°N.
const M_PER_DEG_LAT: f64 = 111_320.0;
const M_PER_DEG_LON: f64 = 55_800.0;

/// Source of the antenna's true position.
pub type PositionSource = Rc<dyn Fn() -> Position>;

/// A GPS receiver producing NMEA bursts.
///
/// ```
/// use sensors::GpsReceiver;
/// use radio::Position;
/// use simkit::SimTime;
/// use std::rc::Rc;
///
/// let mut gps = GpsReceiver::new(Rc::new(|| Position::new(100.0, 50.0)), 5.0, 1);
/// let burst = gps.nmea_burst(SimTime::from_secs(60));
/// assert!(burst.iter().any(|s| s.starts_with("$GPGGA")));
/// ```
pub struct GpsReceiver {
    position: PositionSource,
    accuracy_m: f64,
    powered: bool,
    rng: DetRng,
}

impl GpsReceiver {
    /// Creates a powered receiver with the given 1-σ position accuracy.
    ///
    /// # Panics
    ///
    /// Panics if `accuracy_m` is negative.
    pub fn new(position: PositionSource, accuracy_m: f64, seed: u64) -> Self {
        assert!(accuracy_m >= 0.0, "accuracy must be non-negative");
        GpsReceiver {
            position,
            accuracy_m,
            powered: true,
            rng: DetRng::new(seed ^ 0x675),
        }
    }

    /// Powers the receiver on or off (Fig. 5's failure is "manually
    /// switching off the GPS device").
    pub fn set_powered(&mut self, on: bool) {
        self.powered = on;
    }

    /// Current fix state.
    pub fn fix(&self) -> GpsFix {
        if self.powered {
            GpsFix::Fix3D
        } else {
            GpsFix::NoFix
        }
    }

    /// The estimated position (truth + noise), if there is a fix.
    pub fn position_estimate(&mut self) -> Option<Position> {
        if !self.powered {
            return None;
        }
        let p = (self.position)();
        Some(Position::new(
            self.rng.gauss(p.x, self.accuracy_m),
            self.rng.gauss(p.y, self.accuracy_m),
        ))
    }

    /// Generates one NMEA burst (GGA, RMC, GSA, VTG + two GSV sentences —
    /// ≈ 340 bytes, the size the paper reports). Empty when unpowered.
    pub fn nmea_burst(&mut self, now: SimTime) -> Vec<String> {
        let Some(est) = self.position_estimate() else {
            return Vec::new();
        };
        let (lat, lon) = world_to_geo(est);
        let hhmmss = nmea_time(now);
        let speed_kn = self.rng.range_f64(4.0, 7.5);
        let course = self.rng.range_f64(0.0, 359.9);
        let sats = 7 + (self.rng.next_u64() % 3) as u32;
        let hdop = 0.8 + self.rng.unit() * 0.6;
        let mut burst = vec![
            nmea(format!(
                "GPGGA,{hhmmss},{},{},1,{sats:02},{hdop:.1},5.0,M,19.6,M,,",
                nmea_lat(lat),
                nmea_lon(lon)
            )),
            nmea(format!(
                "GPRMC,{hhmmss},A,{},{},{speed_kn:.1},{course:.1},120805,,,A",
                nmea_lat(lat),
                nmea_lon(lon)
            )),
            nmea(format!(
                "GPGSA,A,3,04,05,09,12,24,25,29,,,,,,{:.1},{hdop:.1},1.9",
                hdop + 0.9
            )),
            nmea(format!(
                "GPVTG,{course:.1},T,,M,{speed_kn:.1},N,{:.1},K",
                speed_kn * 1.852
            )),
        ];
        for (i, ids) in [["04", "05", "09", "12"], ["24", "25", "29", "31"]]
            .iter()
            .enumerate()
        {
            let mut body = format!("GPGSV,2,{},{:02}", i + 1, sats);
            for id in ids {
                let elev = 10 + (self.rng.next_u64() % 70) as u32;
                let az = (self.rng.next_u64() % 360) as u32;
                let snr = 30 + (self.rng.next_u64() % 20) as u32;
                body.push_str(&format!(",{id},{elev:02},{az:03},{snr}"));
            }
            burst.push(nmea(body));
        }
        burst
    }
}

impl fmt::Debug for GpsReceiver {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("GpsReceiver")
            .field("powered", &self.powered)
            .field("fix", &self.fix())
            .finish()
    }
}

/// Converts simulation metres to geographic coordinates.
pub fn world_to_geo(p: Position) -> (f64, f64) {
    (
        ORIGIN_LAT + p.y / M_PER_DEG_LAT,
        ORIGIN_LON + p.x / M_PER_DEG_LON,
    )
}

/// Converts geographic coordinates back to simulation metres.
pub fn geo_to_world(lat: f64, lon: f64) -> Position {
    Position::new(
        (lon - ORIGIN_LON) * M_PER_DEG_LON,
        (lat - ORIGIN_LAT) * M_PER_DEG_LAT,
    )
}

fn nmea_time(now: SimTime) -> String {
    let s = now.as_secs() % 86_400;
    format!("{:02}{:02}{:02}.00", s / 3600, (s / 60) % 60, s % 60)
}

fn nmea_lat(lat: f64) -> String {
    let hemi = if lat >= 0.0 { 'N' } else { 'S' };
    let lat = lat.abs();
    let deg = lat.floor();
    let min = (lat - deg) * 60.0;
    format!("{:02}{:07.4},{}", deg as u32, min, hemi)
}

fn nmea_lon(lon: f64) -> String {
    let hemi = if lon >= 0.0 { 'E' } else { 'W' };
    let lon = lon.abs();
    let deg = lon.floor();
    let min = (lon - deg) * 60.0;
    format!("{:03}{:07.4},{}", deg as u32, min, hemi)
}

/// Wraps an NMEA body with `$` and its XOR checksum.
fn nmea(body: String) -> String {
    let checksum = body.bytes().fold(0u8, |acc, b| acc ^ b);
    format!("${body}*{checksum:02X}")
}

/// Parses the latitude/longitude out of a GGA sentence (used by the
/// location provider to turn NMEA back into a position).
pub fn parse_gga(sentence: &str) -> Option<Position> {
    if !sentence.starts_with("$GPGGA") {
        return None;
    }
    let body = sentence.strip_prefix('$')?.split('*').next()?;
    let fields: Vec<&str> = body.split(',').collect();
    let [_, _, lat, lat_hemi, lon, lon_hemi, ..] = fields.as_slice() else {
        return None;
    };
    let lat = parse_coord(lat, lat_hemi, 2)?;
    let lon = parse_coord(lon, lon_hemi, 3)?;
    Some(geo_to_world(lat, lon))
}

/// `value` is `d…dmm.mmmm` with `deg_digits` degree digits. `str::get`
/// gives `None`, not a panic, when a split lands inside a multi-byte
/// character.
fn parse_coord(value: &str, hemi: &str, deg_digits: usize) -> Option<f64> {
    let deg: f64 = value.get(..deg_digits)?.parse().ok()?;
    let min: f64 = value.get(deg_digits..)?.parse().ok()?;
    let v = deg + min / 60.0;
    Some(match hemi {
        "S" | "W" => -v,
        _ => v,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gps(acc: f64) -> GpsReceiver {
        GpsReceiver::new(Rc::new(|| Position::new(500.0, 1_000.0)), acc, 3)
    }

    #[test]
    fn burst_is_about_340_bytes() {
        let mut g = gps(5.0);
        let burst = g.nmea_burst(SimTime::from_secs(3_600));
        // Each sentence goes out with a CR/LF.
        let size: usize = burst.iter().map(|s| s.len() + 2).sum();
        assert!(
            (300..=400).contains(&size),
            "burst size {size}, paper says ~340"
        );
        assert_eq!(burst.len(), 6);
    }

    #[test]
    fn checksums_are_valid() {
        let mut g = gps(5.0);
        for s in g.nmea_burst(SimTime::from_secs(60)) {
            let (body, cs) = s.strip_prefix('$').unwrap().split_once('*').unwrap();
            let expect = body.bytes().fold(0u8, |a, b| a ^ b);
            assert_eq!(u8::from_str_radix(cs, 16).unwrap(), expect, "sentence {s}");
        }
    }

    #[test]
    fn gga_round_trips_position() {
        let mut g = gps(0.0);
        let burst = g.nmea_burst(SimTime::from_secs(60));
        let gga = burst.iter().find(|s| s.starts_with("$GPGGA")).unwrap();
        let p = parse_gga(gga).unwrap();
        // Round-trip error bounded by NMEA minute formatting (4 decimals
        // of a minute ≈ 0.2 m lat, ~0.1 m lon at this latitude).
        assert!((p.x - 500.0).abs() < 1.0, "x {}", p.x);
        assert!((p.y - 1_000.0).abs() < 1.0, "y {}", p.y);
    }

    #[test]
    fn unpowered_receiver_produces_nothing() {
        let mut g = gps(5.0);
        g.set_powered(false);
        assert_eq!(g.fix(), GpsFix::NoFix);
        assert!(g.nmea_burst(SimTime::ZERO).is_empty());
        assert!(g.position_estimate().is_none());
        g.set_powered(true);
        assert_eq!(g.fix(), GpsFix::Fix3D);
        assert!(g.position_estimate().is_some());
    }

    #[test]
    fn accuracy_spreads_position_estimates() {
        let mut g = gps(10.0);
        let estimates: Vec<Position> = (0..100).filter_map(|_| g.position_estimate()).collect();
        let mean_x = estimates.iter().map(|p| p.x).sum::<f64>() / 100.0;
        let spread = estimates
            .iter()
            .map(|p| (p.x - mean_x).powi(2))
            .sum::<f64>()
            / 100.0;
        assert!((mean_x - 500.0).abs() < 5.0);
        assert!(spread.sqrt() > 5.0, "std {}", spread.sqrt());
    }

    #[test]
    fn geo_conversion_round_trips() {
        let p = Position::new(-1234.0, 5678.0);
        let (lat, lon) = world_to_geo(p);
        let back = geo_to_world(lat, lon);
        assert!((back.x - p.x).abs() < 1e-6);
        assert!((back.y - p.y).abs() < 1e-6);
    }

    #[test]
    fn parse_gga_rejects_other_sentences() {
        assert!(parse_gga("$GPRMC,whatever*00").is_none());
        assert!(parse_gga("garbage").is_none());
    }

    #[test]
    fn parse_gga_rejects_non_ascii_coordinates() {
        // The degree/minute split of "1é3" lands inside the 'é'.
        let s = "$GPGGA,120000,1é3,N,02457.0000,E,1,08,0.9,0.0,M,,,*00";
        assert!(parse_gga(s).is_none());
        assert!(parse_gga("$GPGGA,120000,6009.0000,N,02é7.0,E*00").is_none());
        assert!(parse_gga("$GPGGA,120000,60,N,02457.0000,E*00").is_none());
    }
}
