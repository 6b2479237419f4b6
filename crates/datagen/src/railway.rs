//! The skewed "trains on a railway system" datasets.

use crate::map::RailwayMap;
use crate::TIME_EXTENT;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use sti_geom::{Time, TimeInterval};
use sti_trajectory::{MotionSegment, RasterizedObject, Trajectory};

/// Specification of a railway dataset, defaulted to the paper's §V
/// parameters: trains make up to 10 stops, travel for at most 36 hours at
/// 60–75 mph, never return to their origin without stopping somewhere
/// else in between, and follow straight-line tracks as piecewise linear
/// trajectories. One time instant represents one hour.
#[derive(Debug, Clone)]
pub struct RailwayDatasetSpec {
    /// Number of trains (paper: 10k / 30k / 50k / 80k).
    pub num_trains: usize,
    /// Evolution length in instants (hours).
    pub time_extent: Time,
    /// Maximum number of stops (route legs).
    pub max_stops: usize,
    /// Maximum total travel time in hours.
    pub max_hours: u32,
    /// Speed bounds in miles per hour (inclusive).
    pub speed: (f64, f64),
    /// RNG seed.
    pub seed: u64,
}

impl RailwayDatasetSpec {
    /// The paper's configuration for `n` trains.
    pub fn paper(n: usize) -> Self {
        Self {
            num_trains: n,
            time_extent: TIME_EXTENT,
            max_stops: 10,
            max_hours: 36,
            speed: (60.0, 75.0),
            seed: 0x5eed_0002,
        }
    }

    /// Generate the trains as full trajectories (piecewise linear,
    /// zero-extent moving points). Ids are `0..num_trains`.
    pub fn generate(&self) -> Vec<Trajectory> {
        let map = RailwayMap::us_rail();
        let mut rng = StdRng::seed_from_u64(self.seed);
        (0..self.num_trains)
            .map(|id| self.generate_train(id as u64, &map, &mut rng))
            .collect()
    }

    /// Generate and rasterize (the form the splitting algorithms take).
    pub fn generate_rasterized(&self) -> Vec<RasterizedObject> {
        self.generate().iter().map(Trajectory::rasterize).collect()
    }

    fn generate_train(&self, id: u64, map: &RailwayMap, rng: &mut StdRng) -> Trajectory {
        let speed = rng.random_range(self.speed.0..=self.speed.1);
        let legs_wanted = rng.random_range(1..=self.max_stops);

        // Random walk on the railway graph. Forbid the immediate
        // back-and-forth A→B→A ("no train may go back to the city where
        // it originated without stopping somewhere else in-between").
        let origin = rng.random_range(0..map.cities().len());
        let mut route = vec![origin];
        let mut hours_total = 0u32;
        let mut leg_hours: Vec<u32> = Vec::new();
        while route.len() <= legs_wanted {
            #[expect(
                clippy::expect_used,
                reason = "route starts as vec![origin] and only grows"
            )]
            let here = *route.last().expect("nonempty");
            let prev = if route.len() >= 2 {
                Some(route[route.len() - 2])
            } else {
                None
            };
            let options: Vec<(usize, usize)> = map
                .neighbors(here)
                .iter()
                .copied()
                .filter(|&(n, _)| Some(n) != prev)
                .collect();
            let Some(&(next, track)) = pick(rng, &options) else {
                break;
            };
            let hours = (map.tracks()[track].miles / speed).ceil().max(1.0) as u32;
            if hours_total + hours > self.max_hours {
                break;
            }
            hours_total += hours;
            leg_hours.push(hours);
            route.push(next);
        }
        if leg_hours.is_empty() {
            // Dead-ended immediately (cannot happen on a connected map
            // with ≥2 neighbors, but stay total): park the train for one
            // hour at its origin.
            leg_hours.push(1);
            route.push(
                map.neighbors(origin)
                    .first()
                    .map(|&(n, _)| n)
                    .unwrap_or(origin),
            );
            hours_total = 1;
        }

        let start: Time = rng.random_range(0..=(self.time_extent - hours_total));
        let mut segments = Vec::with_capacity(leg_hours.len());
        let mut t = start;
        for (leg, &hours) in leg_hours.iter().enumerate() {
            let a = map.cities()[route[leg]].pos;
            let b = map.cities()[route[leg + 1]].pos;
            segments.push(MotionSegment::linear_between(
                TimeInterval::new(t, t + hours),
                a,
                b,
                0.0,
                0.0,
            ));
            t += hours;
        }
        Trajectory::new(id, segments)
    }
}

fn pick<'a, T>(rng: &mut StdRng, options: &'a [T]) -> Option<&'a T> {
    if options.is_empty() {
        None
    } else {
        Some(&options[rng.random_range(0..options.len())])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sti_geom::Rect2;

    fn spec(n: usize) -> RailwayDatasetSpec {
        RailwayDatasetSpec {
            seed: 7,
            ..RailwayDatasetSpec::paper(n)
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = spec(40).generate();
        let b = spec(40).generate();
        assert_eq!(a, b);
    }

    #[test]
    fn respects_paper_constraints() {
        let trains = spec(400).generate();
        let map = RailwayMap::us_rail();
        for tr in &trains {
            let dur = tr.duration() as u32;
            assert!(dur <= 36, "train {} travels {dur} hours", tr.id);
            assert!(tr.lifetime().end <= TIME_EXTENT);
            assert!(tr.segments().len() <= 10, "too many legs");
            // Every segment endpoint is a city position.
            for s in tr.segments() {
                let a = s.rect_at(s.interval.start).expect("inside").center();
                let on_city = map
                    .cities()
                    .iter()
                    .any(|c| (c.pos.x - a.x).abs() < 1e-9 && (c.pos.y - a.y).abs() < 1e-9);
                assert!(on_city, "segment does not start at a city");
            }
        }
    }

    #[test]
    fn no_immediate_backtrack() {
        let trains = spec(300).generate();
        let map = RailwayMap::us_rail();
        let city_at = |p: sti_geom::Point2| {
            map.cities()
                .iter()
                .position(|c| (c.pos.x - p.x).abs() < 1e-9 && (c.pos.y - p.y).abs() < 1e-9)
                .expect("a city")
        };
        for tr in &trains {
            let mut cities = Vec::new();
            for s in tr.segments() {
                cities.push(city_at(
                    s.rect_at(s.interval.start).expect("inside").center(),
                ));
            }
            // cities[i] is the start of leg i; check no A→B→A.
            for w in cities.windows(3) {
                assert_ne!(w[0], w[2], "train {} backtracks immediately", tr.id);
            }
        }
    }

    #[test]
    fn average_lifetime_matches_table_one() {
        // Table I reports ≈18 instants average lifetime for railway data.
        let trains = spec(2000).generate();
        let avg: f64 =
            trains.iter().map(|t| t.duration() as f64).sum::<f64>() / trains.len() as f64;
        assert!(
            (10.0..=28.0).contains(&avg),
            "avg lifetime {avg} far from 18"
        );
    }

    #[test]
    fn rasterized_points_stay_in_unit_square() {
        for o in spec(100).generate_rasterized() {
            for i in 0..o.len() {
                assert!(Rect2::UNIT.contains_rect(&o.rect(i)));
            }
        }
    }

    #[test]
    fn skewed_not_uniform() {
        // Trains cluster on the two coasts: a mid-country box far from
        // any track should see almost no traffic.
        let objs = spec(1000).generate_rasterized();
        let empty_box = Rect2::from_bounds(0.45, 0.05, 0.55, 0.25); // south of the Denver–KC belt
        let hits = objs
            .iter()
            .filter(|o| (0..o.len()).any(|i| o.rect(i).intersects(&empty_box)))
            .count();
        assert!(
            hits < 50,
            "{hits} trains crossed a box that should be quiet"
        );
    }
}
