//! The application survey of Table 1.
//!
//! Thirteen representative smart-home applications with their sensor
//! types, category, and the delivery guarantee the paper's study found
//! they require. The `figures` harness renders
//! this as Table 1; the entries also serve as ready-made workloads.

use crate::delivery::Delivery;

/// Application category from the survey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AppCategory {
    /// Energy/comfort efficiency.
    Efficiency,
    /// User convenience.
    Convenience,
    /// Elder care.
    ElderCare,
    /// Life/property safety.
    Safety,
    /// Billing accuracy.
    Billing,
}

impl std::fmt::Display for AppCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            AppCategory::Efficiency => "Efficiency",
            AppCategory::Convenience => "Convenience",
            AppCategory::ElderCare => "Elder care",
            AppCategory::Safety => "Safety",
            AppCategory::Billing => "Billing",
        };
        f.write_str(s)
    }
}

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct AppCatalogEntry {
    /// Application name.
    pub name: &'static str,
    /// Sensor types consumed.
    pub sensors: &'static str,
    /// Category.
    pub category: AppCategory,
    /// Required delivery guarantee.
    pub delivery: Delivery,
}

/// The Table 1 rows.
#[must_use]
pub fn table1() -> Vec<AppCatalogEntry> {
    use AppCategory::*;
    use Delivery::*;
    vec![
        AppCatalogEntry {
            name: "Occupancy-based HVAC",
            sensors: "occupancy",
            category: Efficiency,
            delivery: Gap,
        },
        AppCatalogEntry {
            name: "User-based HVAC",
            sensors: "camera",
            category: Efficiency,
            delivery: Gap,
        },
        AppCatalogEntry {
            name: "Automated lighting",
            sensors: "occupancy, camera, microphone",
            category: Convenience,
            delivery: Gap,
        },
        AppCatalogEntry {
            name: "Appliance alert",
            sensors: "appliance, whole-house energy",
            category: Efficiency,
            delivery: Gap,
        },
        AppCatalogEntry {
            name: "Activity tracking",
            sensors: "microphone",
            category: Convenience,
            delivery: Gap,
        },
        AppCatalogEntry {
            name: "Fall alert",
            sensors: "wearables",
            category: ElderCare,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Inactive alert",
            sensors: "motion, door-open",
            category: ElderCare,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Flood/fire alert",
            sensors: "water, smoke",
            category: Safety,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Intrusion-detection",
            sensors: "door-window",
            category: Safety,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Energy billing",
            sensors: "whole-house energy",
            category: Billing,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Temperature-based HVAC",
            sensors: "temperature",
            category: Efficiency,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Air (or light) monitoring",
            sensors: "CO, CO2",
            category: Safety,
            delivery: Gapless,
        },
        AppCatalogEntry {
            name: "Surveillance",
            sensors: "camera",
            category: Safety,
            delivery: Gapless,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thirteen_rows_as_in_the_paper() {
        assert_eq!(table1().len(), 13);
    }

    #[test]
    fn delivery_split_matches_paper() {
        let rows = table1();
        let gap = rows.iter().filter(|r| r.delivery == Delivery::Gap).count();
        let gapless = rows
            .iter()
            .filter(|r| r.delivery == Delivery::Gapless)
            .count();
        assert_eq!(gap, 5);
        assert_eq!(gapless, 8);
    }

    #[test]
    fn safety_and_elder_care_are_always_gapless() {
        for row in table1() {
            if matches!(row.category, AppCategory::Safety | AppCategory::ElderCare) {
                assert_eq!(
                    row.delivery,
                    Delivery::Gapless,
                    "{} must not tolerate gaps",
                    row.name
                );
            }
        }
    }

    #[test]
    fn categories_render() {
        assert_eq!(AppCategory::ElderCare.to_string(), "Elder care");
        assert_eq!(AppCategory::Billing.to_string(), "Billing");
    }
}
