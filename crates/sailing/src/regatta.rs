//! RegattaClassifier (paper §6.2).
//!
//! "During a regatta competition, this service constantly provides an
//! updated classification of the current winner. Virtual checkpoints can
//! be arranged along the route that the boats will take. Each time a
//! boat reaches a checkpoint, the RegattaClassifier running on the
//! phone's participant communicates to the infrastructure location and
//! speed of the boat (collected using GPS sensors). The infrastructure
//! processes this information and provides each participant with an
//! updated classification."

use contory::query::QueryBuilder;
use contory::{Client, ContextFactory, CxtItem, CxtValue, QueryId};
use fuego::{ContextInfrastructure, InfraQuery, InfraRecord};
use radio::{Position, Region};
use simkit::{Sim, SimDuration, SimTime};
use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

/// Record type under which checkpoint passages are stored.
const PASSAGE_TYPE: &str = "regattaCheckpoint";

/// A virtual checkpoint along the course.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Checkpoint {
    /// Checkpoint centre.
    pub position: Position,
    /// Capture radius in metres.
    pub radius: f64,
}

impl Checkpoint {
    /// Creates a checkpoint.
    pub fn new(position: Position, radius: f64) -> Self {
        Checkpoint { position, radius }
    }

    /// Whether a boat at `p` is inside the checkpoint.
    pub fn captures(&self, p: Position) -> bool {
        Region::new(self.position, self.radius).contains(p)
    }
}

/// The ordered checkpoints of a course.
#[derive(Clone, Debug, PartialEq)]
pub struct RegattaCourse {
    checkpoints: Vec<Checkpoint>,
}

impl RegattaCourse {
    /// Creates a course.
    ///
    /// # Panics
    ///
    /// Panics if `checkpoints` is empty.
    pub fn new(checkpoints: Vec<Checkpoint>) -> Self {
        assert!(!checkpoints.is_empty(), "a course needs checkpoints");
        RegattaCourse { checkpoints }
    }

    /// The checkpoints in passage order.
    pub fn checkpoints(&self) -> &[Checkpoint] {
        &self.checkpoints
    }

    /// Number of checkpoints.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Never true (construction forbids empty courses); included for
    /// API completeness.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }
}

/// One row of the classification.
#[derive(Clone, Debug, PartialEq)]
pub struct Standing {
    /// Participant entity name.
    pub entity: String,
    /// Checkpoints passed so far.
    pub passed: usize,
    /// When the latest checkpoint was passed.
    pub last_passage: SimTime,
    /// Speed (knots) reported at the latest passage.
    pub last_speed: f64,
}

/// The classification service, computed on the infrastructure from the
/// passage records participants store.
#[derive(Clone)]
pub struct RegattaClassifier {
    infra: ContextInfrastructure,
}

impl RegattaClassifier {
    /// Creates the classifier over the shared infrastructure.
    pub fn new(infra: &ContextInfrastructure) -> Self {
        RegattaClassifier {
            infra: infra.clone(),
        }
    }

    /// The current classification: most checkpoints first, ties broken by
    /// earliest last passage (you were there first).
    pub fn standings(&self) -> Vec<Standing> {
        let records = self.infra.eval(&InfraQuery::for_type(PASSAGE_TYPE));
        let mut per_boat: Vec<Standing> = Vec::new();
        for r in &records {
            let Some((passed_idx, speed)) = passage_metadata(r) else {
                continue;
            };
            match per_boat.iter_mut().find(|s| s.entity == r.entity) {
                Some(s) => {
                    if passed_idx + 1 > s.passed {
                        s.passed = passed_idx + 1;
                        s.last_passage = r.timestamp;
                        s.last_speed = speed;
                    }
                }
                None => per_boat.push(Standing {
                    entity: r.entity.clone(),
                    passed: passed_idx + 1,
                    last_passage: r.timestamp,
                    last_speed: speed,
                }),
            }
        }
        per_boat.sort_by(|a, b| {
            b.passed
                .cmp(&a.passed)
                .then(a.last_passage.cmp(&b.last_passage))
        });
        per_boat
    }

    /// The current leader, if anyone passed a checkpoint yet.
    pub fn leader(&self) -> Option<Standing> {
        self.standings().into_iter().next()
    }
}

impl fmt::Debug for RegattaClassifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegattaClassifier").finish()
    }
}

struct ParticipantState {
    next_checkpoint: usize,
    last_position: Option<(Position, SimTime)>,
    passages: Vec<SimTime>,
}

struct ParticipantClient {
    name: String,
    course: RegattaCourse,
    factory: ContextFactory,
    state: RefCell<ParticipantState>,
}

impl Client for ParticipantClient {
    fn receive_cxt_item(&self, _query: QueryId, item: CxtItem) {
        let CxtValue::Position { x, y } = item.value else {
            return;
        };
        let here = Position::new(x, y);
        let mut st = self.state.borrow_mut();
        // Speed estimate from consecutive GPS fixes.
        let speed_kn = match st.last_position {
            Some((prev, at)) if item.timestamp > at => {
                let dt = (item.timestamp - at).as_secs_f64();
                prev.distance_to(here) / dt * 1.943_84 // m/s → knots
            }
            _ => 0.0,
        };
        st.last_position = Some((here, item.timestamp));
        let idx = st.next_checkpoint;
        let Some(cp) = self.course.checkpoints().get(idx) else {
            return; // finished
        };
        if cp.captures(here) {
            st.next_checkpoint += 1;
            st.passages.push(item.timestamp);
            drop(st);
            // "communicates to the infrastructure location and speed"
            let passage = CxtItem::new(
                PASSAGE_TYPE,
                CxtValue::Composite(vec![
                    ("checkpoint".into(), idx as f64),
                    ("x".into(), here.x),
                    ("y".into(), here.y),
                    ("speed".into(), speed_kn),
                ]),
                item.timestamp,
            )
            .with_source(self.name.clone());
            self.factory.store_cxt_item(passage);
        }
    }

    fn inform_error(&self, _message: &str) {}
}

/// The participant-side service running on each boat's phone.
pub struct RegattaParticipant {
    name: String,
    client: Rc<ParticipantClient>,
}

impl RegattaParticipant {
    /// Starts the service: a periodic location query (the GPS via
    /// Contory) drives checkpoint detection; passages are stored in the
    /// infrastructure.
    ///
    /// # Errors
    ///
    /// Propagates the factory's error if no mechanism can provide
    /// location.
    pub fn start(
        _sim: &Sim,
        factory: &ContextFactory,
        name: &str,
        course: RegattaCourse,
        fix_every: SimDuration,
    ) -> Result<Self, contory::ContoryError> {
        let client = Rc::new(ParticipantClient {
            name: name.to_owned(),
            course,
            factory: factory.clone(),
            state: RefCell::new(ParticipantState {
                next_checkpoint: 0,
                last_position: None,
                passages: Vec::new(),
            }),
        });
        let q = QueryBuilder::select("location")
            .from_int_sensor()
            .duration(SimDuration::from_hours(12))
            .every(fix_every)
            .build();
        factory.process_cxt_query(q, client.clone())?;
        Ok(RegattaParticipant {
            name: name.to_owned(),
            client,
        })
    }

    /// Participant entity name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Checkpoints passed so far (local view).
    pub fn checkpoints_passed(&self) -> usize {
        self.client.state.borrow().next_checkpoint
    }

    /// Local passage timestamps.
    pub fn passages(&self) -> Vec<SimTime> {
        self.client.state.borrow().passages.clone()
    }
}

impl fmt::Debug for RegattaParticipant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RegattaParticipant")
            .field("name", &self.name)
            .field("passed", &self.checkpoints_passed())
            .finish()
    }
}

/// Extracts `(checkpoint index, speed)` from the passage item a passage
/// record carries.
pub(crate) fn passage_metadata(record: &InfraRecord) -> Option<(usize, f64)> {
    let item = record.payload.as_ref()?.downcast_ref::<CxtItem>()?;
    let CxtValue::Composite(parts) = &item.value else {
        return None;
    };
    let get = |k: &str| parts.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
    let cp = get("checkpoint")? as usize;
    Some((cp, get("speed").unwrap_or(0.0)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoint_capture() {
        let cp = Checkpoint::new(Position::new(100.0, 0.0), 50.0);
        assert!(cp.captures(Position::new(120.0, 30.0)));
        assert!(!cp.captures(Position::new(200.0, 0.0)));
    }

    #[test]
    #[should_panic(expected = "checkpoints")]
    fn empty_course_panics() {
        let _ = RegattaCourse::new(Vec::new());
    }
}
