//! Device profiles for the phones in the paper's testbed (§6.1).

use std::fmt;

/// The phone models used in the paper's experimental testbed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum PhoneModel {
    /// Nokia 6630 — Symbian OS 8.0a, 220 MHz, WCDMA/EDGE, 9 MB RAM.
    Nokia6630,
    /// Nokia 7610 — Symbian OS 7.0s, 123 MHz, GPRS, 9 MB RAM.
    Nokia7610,
    /// Nokia 9500 communicator — Symbian OS 7.0s, 150 MHz,
    /// WLAN 802.11b/EDGE, 64 MB RAM.
    Nokia9500,
}

/// Hardware capabilities of a [`PhoneModel`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PhoneSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Symbian OS version string.
    pub os: &'static str,
    /// CPU clock in MHz; scales local compute latencies.
    pub cpu_mhz: u32,
    /// RAM available to applications, in kilobytes.
    pub ram_kb: u32,
    /// Whether the device has an 802.11b WLAN radio.
    pub has_wifi: bool,
    /// Whether the device has a 3G (WCDMA/UMTS) radio; all have 2G.
    pub has_umts: bool,
}

impl PhoneModel {
    /// The hardware spec for this model.
    pub fn spec(self) -> PhoneSpec {
        match self {
            PhoneModel::Nokia6630 => PhoneSpec {
                name: "Nokia 6630",
                os: "Symbian OS 8.0a",
                cpu_mhz: 220,
                ram_kb: 9 * 1024,
                has_wifi: false,
                has_umts: true,
            },
            PhoneModel::Nokia7610 => PhoneSpec {
                name: "Nokia 7610",
                os: "Symbian OS 7.0s",
                cpu_mhz: 123,
                ram_kb: 9 * 1024,
                has_wifi: false,
                has_umts: false,
            },
            PhoneModel::Nokia9500 => PhoneSpec {
                name: "Nokia 9500",
                os: "Symbian OS 7.0s",
                cpu_mhz: 150,
                ram_kb: 64 * 1024,
                has_wifi: true,
                has_umts: false,
            },
        }
    }
}

impl fmt::Display for PhoneModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.spec().name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn specs_match_paper_testbed() {
        let s = PhoneModel::Nokia6630.spec();
        assert_eq!(s.cpu_mhz, 220);
        assert_eq!(s.ram_kb, 9 * 1024);
        assert!(s.has_umts && !s.has_wifi);

        let s = PhoneModel::Nokia9500.spec();
        assert_eq!(s.cpu_mhz, 150);
        assert_eq!(s.ram_kb, 64 * 1024);
        assert!(s.has_wifi && !s.has_umts);

        let s = PhoneModel::Nokia7610.spec();
        assert_eq!(s.cpu_mhz, 123);
        assert!(!s.has_wifi && !s.has_umts);
    }

    #[test]
    fn display_names() {
        assert_eq!(PhoneModel::Nokia9500.to_string(), "Nokia 9500");
    }
}
