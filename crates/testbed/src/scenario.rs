//! Testbed assembly: whole-device and whole-scenario builders.
//!
//! [`Testbed`] owns the shared substrate (simulator, world, radio
//! mediums, SM platform, event broker, context infrastructure, ground
//! truth); [`Testbed::add_phone`] assembles one device — phone model,
//! radios, references, ContextFactory — and registers it under an entity
//! name, mirroring the paper's rig of Nokia 6630/7610 phones and 9500
//! communicators.

use crate::refs_impl::{SimBtReference, SimCellReference, SimInternalReference, SimWifiReference};
use contory::refs::References;
use contory::{Client, ContextFactory, FactoryConfig, QueryId};
use fuego::{ContextInfrastructure, EventBroker, FuegoClient, InfraClient};
use phone::{Phone, PhoneConfig, PhoneModel};
use radio::bt::{BtMedium, BtParams, BtRadio};
use radio::cell::{CellModem, CellNetwork, CellParams};
use radio::wifi::{WifiMedium, WifiParams, WifiRadio};
use radio::{NodeId, Position, World};
use sensors::{BtGpsDevice, EnvField, Environment, WeatherStation};
use simkit::{FaultInjector, FaultPlan, Sim, SimDuration, SimTime};
use smartmsg::{SmNode, SmParams, SmPlatform};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt;
use std::rc::Rc;

/// Per-device setup passed to [`Testbed::add_phone`].
#[derive(Clone, Debug)]
pub struct PhoneSetup {
    /// Entity name (e.g. `"boat-1"`).
    pub name: String,
    /// Hardware profile.
    pub model: PhoneModel,
    /// Initial position (use [`Testbed::add_mobile_phone`] for tracks).
    pub position: Position,
    /// Wire a multimeter in series (measurement posture).
    pub metered: bool,
    /// Integrated sensors (empty = paper-faithful: none).
    pub internal_sensors: Vec<EnvField>,
    /// Power the WiFi radio up at start (expensive!).
    pub wifi_on: bool,
    /// Turn the GSM radio on at start.
    pub cell_on: bool,
    /// Middleware configuration.
    pub factory: FactoryConfig,
}

impl PhoneSetup {
    /// A Nokia 6630 in the paper's measurement posture (meter in series,
    /// radios off, no internal sensors).
    pub fn nokia6630(name: impl Into<String>, position: Position) -> Self {
        PhoneSetup {
            name: name.into(),
            model: PhoneModel::Nokia6630,
            position,
            metered: true,
            internal_sensors: Vec::new(),
            wifi_on: false,
            cell_on: false,
            factory: FactoryConfig::default(),
        }
    }

    /// A Nokia 9500 communicator with WiFi up (not metered — the paper's
    /// meter browned these out; energy comes from the power model).
    pub fn nokia9500(name: impl Into<String>, position: Position) -> Self {
        PhoneSetup {
            name: name.into(),
            model: PhoneModel::Nokia9500,
            position,
            metered: false,
            internal_sensors: Vec::new(),
            wifi_on: true,
            cell_on: false,
            factory: FactoryConfig::default(),
        }
    }
}

/// One assembled device.
pub struct TestbedPhone {
    name: String,
    node: NodeId,
    phone: Phone,
    factory: ContextFactory,
    bt_radio: BtRadio,
    wifi_radio: Option<WifiRadio>,
    sm_node: Option<SmNode>,
    modem: Option<CellModem>,
    fuego: Option<FuegoClient>,
    bt_ref: Rc<SimBtReference>,
    wifi_ref: Option<Rc<SimWifiReference>>,
    cell_ref: Rc<SimCellReference>,
    internal_ref: Option<Rc<SimInternalReference>>,
}

impl TestbedPhone {
    /// Entity name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// World node id.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The device model (battery, power, meter).
    pub fn phone(&self) -> &Phone {
        &self.phone
    }

    /// The Contory middleware instance.
    pub fn factory(&self) -> &ContextFactory {
        &self.factory
    }

    /// The Bluetooth radio.
    pub fn bt_radio(&self) -> &BtRadio {
        &self.bt_radio
    }

    /// The WiFi radio, on models that have one.
    pub fn wifi_radio(&self) -> Option<&WifiRadio> {
        self.wifi_radio.as_ref()
    }

    /// The SM runtime, on models with WiFi.
    pub fn sm_node(&self) -> Option<&SmNode> {
        self.sm_node.as_ref()
    }

    /// The cellular modem.
    pub fn modem(&self) -> Option<&CellModem> {
        self.modem.as_ref()
    }

    /// The Fuego client.
    pub fn fuego(&self) -> Option<&FuegoClient> {
        self.fuego.as_ref()
    }

    /// The BT reference (benches measure raw operations through it).
    pub fn bt_reference(&self) -> Rc<SimBtReference> {
        self.bt_ref.clone()
    }

    /// The WiFi reference, on models with the radio.
    pub fn wifi_reference(&self) -> Option<Rc<SimWifiReference>> {
        self.wifi_ref.clone()
    }

    /// The cellular reference.
    pub fn cell_reference(&self) -> Rc<SimCellReference> {
        self.cell_ref.clone()
    }

    /// The internal-sensor reference, when the setup configured sensors.
    pub fn internal_reference(&self) -> Option<Rc<SimInternalReference>> {
        self.internal_ref.clone()
    }

    /// Convenience: parse and submit a query.
    ///
    /// # Errors
    ///
    /// Propagates [`contory::ContoryError`] from the factory.
    pub fn submit(
        &self,
        query_text: &str,
        client: Rc<dyn Client>,
    ) -> Result<QueryId, contory::ContoryError> {
        self.factory.process_cxt_query_text(query_text, client)
    }
}

impl fmt::Debug for TestbedPhone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestbedPhone")
            .field("name", &self.name)
            .field("node", &self.node)
            .field("model", &self.phone.model())
            .finish()
    }
}

/// The shared substrate plus registries.
pub struct Testbed {
    /// The simulator.
    pub sim: Sim,
    /// Node positions and mobility.
    pub world: World,
    /// Ground-truth environment fields.
    pub env: Environment,
    /// Bluetooth medium.
    pub bt: BtMedium,
    /// WiFi ad hoc medium.
    pub wifi: WifiMedium,
    /// Cellular network.
    pub cell: CellNetwork,
    /// Smart Messages platform.
    pub sm: SmPlatform,
    /// Fixed-side event broker.
    pub broker: EventBroker,
    /// Remote context infrastructure.
    pub infra: ContextInfrastructure,
    /// Master seed; every device seed derives from it.
    seed: u64,
    entities: Rc<RefCell<BTreeMap<String, NodeId>>>,
    /// Keeps every assembled device alive: a phone does not vanish from
    /// the simulated world when the caller drops its handle.
    devices: RefCell<Vec<Rc<TestbedPhone>>>,
    next_seed: std::cell::Cell<u64>,
}

impl Testbed {
    /// Builds an empty testbed; everything derives from `seed`
    /// deterministically.
    pub fn with_seed(seed: u64) -> Self {
        let sim = Sim::new();
        let world = World::new(&sim);
        let env = Environment::new(seed ^ 0xe57);
        let bt = BtMedium::new(&sim, &world, BtParams::default());
        let wifi = WifiMedium::new(&sim, &world, WifiParams::default());
        let cell = CellNetwork::new(&sim, CellParams::default(), seed ^ 0xce11);
        let sm = SmPlatform::new(&sim, SmParams::default());
        let broker = EventBroker::new(&sim, &cell);
        let infra = ContextInfrastructure::new(&broker);
        Testbed {
            sim,
            world,
            env,
            bt,
            wifi,
            cell,
            sm,
            broker,
            infra,
            seed,
            entities: Rc::new(RefCell::new(BTreeMap::new())),
            devices: RefCell::new(Vec::new()),
            next_seed: std::cell::Cell::new(1),
        }
    }

    fn fresh_seed(&self) -> u64 {
        let s = self.next_seed.get();
        self.next_seed.set(s + 1);
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ s
    }

    /// Assembles a device per the setup and registers its entity name.
    /// The testbed keeps the device alive; the returned handle is shared.
    pub fn add_phone(&self, setup: PhoneSetup) -> Rc<TestbedPhone> {
        let node = self.world.add_node(setup.position);
        self.add_phone_at_node(setup, node)
    }

    /// Assembles a device following a waypoint track (a sailing boat).
    pub fn add_mobile_phone(
        &self,
        setup: PhoneSetup,
        waypoints: Vec<(SimTime, Position)>,
    ) -> Rc<TestbedPhone> {
        let node = self.world.add_mobile_node(waypoints);
        self.add_phone_at_node(setup, node)
    }

    /// Every device assembled so far, in creation order.
    pub fn devices(&self) -> Vec<Rc<TestbedPhone>> {
        self.devices.borrow().clone()
    }

    fn add_phone_at_node(&self, setup: PhoneSetup, node: NodeId) -> Rc<TestbedPhone> {
        let spec = setup.model.spec();
        let phone = Phone::new(
            &self.sim,
            PhoneConfig {
                model: setup.model,
                seed: self.fresh_seed(),
                with_meter: setup.metered,
                display_on: false,
                backlight_on: false,
            },
        );
        self.entities.borrow_mut().insert(setup.name.clone(), node);

        // Bluetooth: every model has it; radio starts in page/inquiry scan.
        let bt_radio = self.bt.attach(node, &phone, self.fresh_seed());
        let bt_ref = Rc::new(SimBtReference::new(&self.sim, &bt_radio, &setup.name));

        // WiFi + Smart Messages on models that have the radio.
        let (wifi_radio, sm_node, wifi_ref) = if spec.has_wifi {
            let radio = self.wifi.attach(node, &phone, self.fresh_seed());
            if setup.wifi_on {
                radio.power_on(|| {});
            }
            let sm_node = self.sm.install(&radio, &phone, self.fresh_seed());
            let wifi_ref = Rc::new(SimWifiReference::new(
                &self.sim,
                &sm_node,
                &radio,
                &setup.name,
                &self.world,
                self.entities.clone(),
            ));
            (Some(radio), Some(sm_node), Some(wifi_ref))
        } else {
            (None, None, None)
        };

        // Cellular + Fuego (all models have at least 2G data).
        let modem = self.cell.attach(node, &phone, self.fresh_seed());
        if setup.cell_on {
            modem.set_radio(true);
        }
        let fuego = FuegoClient::new(&self.sim, &modem, setup.name.clone());
        let infra_client = InfraClient::new(&fuego);
        let world = self.world.clone();
        let cell_ref = Rc::new(SimCellReference::new(
            &modem,
            &infra_client,
            &setup.name,
            Rc::new(move || world.position_of(node)),
        ));

        // Internal sensors (optional).
        let internal_ref = if setup.internal_sensors.is_empty() {
            None
        } else {
            let world = self.world.clone();
            Some(Rc::new(SimInternalReference::new(
                &self.sim,
                &self.env,
                &setup.internal_sensors,
                Rc::new(move || world.position_of(node).unwrap_or_default()),
                &setup.name,
                self.fresh_seed(),
            )))
        };

        let refs = References {
            internal: internal_ref
                .clone()
                .map(|i| i as Rc<dyn contory::refs::InternalReference>),
            bt: Some(bt_ref.clone()),
            wifi: wifi_ref
                .clone()
                .map(|w| w as Rc<dyn contory::refs::WifiReference>),
            cell: Some(cell_ref.clone()),
        };
        let factory = ContextFactory::new(&self.sim, refs, setup.factory.clone());
        phone.set_middleware_running(true);

        let device = Rc::new(TestbedPhone {
            name: setup.name,
            node,
            phone,
            factory,
            bt_radio,
            wifi_radio,
            sm_node,
            modem: Some(modem),
            fuego: Some(fuego),
            bt_ref,
            wifi_ref,
            cell_ref,
            internal_ref,
        });
        self.devices.borrow_mut().push(device.clone());
        device
    }

    /// Adds a BT-GPS puck on its own world node near `position`,
    /// streaming a burst per `interval`.
    pub fn add_bt_gps(&self, position: Position, interval: SimDuration) -> BtGpsDevice {
        let node = self.world.add_node(position);
        BtGpsDevice::new(
            &self.sim,
            &self.bt,
            &self.world,
            node,
            interval,
            self.fresh_seed(),
        )
    }

    /// Adds a BT-GPS puck mounted on an existing (possibly moving) node —
    /// the boat the phone rides on.
    pub fn add_bt_gps_on(&self, node: NodeId, interval: SimDuration) -> BtGpsDevice {
        BtGpsDevice::new(
            &self.sim,
            &self.bt,
            &self.world,
            node,
            interval,
            self.fresh_seed(),
        )
    }

    /// Wires the standard kill-switch targets into a [`FaultInjector`]
    /// and installs the plan's schedule. Call after assembling the
    /// devices the plan addresses. Target naming convention:
    ///
    /// | target                    | kill-switch                        |
    /// |---------------------------|------------------------------------|
    /// | `broker`                  | Fuego broker outage                |
    /// | `bt:<phone>`              | Bluetooth radio power              |
    /// | `wifi:<phone>`            | WiFi radio power                   |
    /// | `cell:<phone>`            | cellular modem radio               |
    /// | `node:<phone>`            | world-node churn (vanishes)        |
    /// | `sensor:<phone>:<type>`   | integrated-sensor dropout          |
    ///
    /// Targets addressing hardware a device lacks are simply never
    /// registered; the injector still logs their transitions.
    pub fn install_faults(&self, plan: &FaultPlan) -> FaultInjector {
        let injector = FaultInjector::new(&self.sim);
        self.register_fault_targets(&injector);
        injector.install(plan);
        injector
    }

    /// Registers every device's kill-switches (and the broker's) on an
    /// injector without installing a plan — for composing schedules
    /// manually.
    pub fn register_fault_targets(&self, injector: &FaultInjector) {
        {
            let broker = self.broker.clone();
            injector.register("broker", move |up| broker.set_outage(!up));
        }
        for device in self.devices() {
            let name = device.name().to_owned();
            {
                let bt = device.bt_radio.clone();
                injector.register(format!("bt:{name}"), move |up| bt.set_power(up));
            }
            if let Some(wifi) = device.wifi_radio.clone() {
                injector.register(format!("wifi:{name}"), move |up| {
                    if up {
                        wifi.power_on(|| {});
                    } else {
                        wifi.power_off();
                    }
                });
            }
            if let Some(modem) = device.modem.clone() {
                injector.register(format!("cell:{name}"), move |up| modem.set_radio(up));
            }
            {
                let world = self.world.clone();
                let node = device.node;
                injector.register(format!("node:{name}"), move |up| {
                    world.set_node_up(node, up);
                });
            }
            if let Some(internal) = device.internal_ref.clone() {
                for cxt_type in internal.sensor_types() {
                    let internal = internal.clone();
                    let t = cxt_type.clone();
                    injector.register(format!("sensor:{name}:{cxt_type}"), move |up| {
                        internal.set_sensor_online(&t, up);
                    });
                }
            }
        }
    }

    /// Installs an "official" weather station feeding the infrastructure
    /// every `every`.
    pub fn add_weather_station(
        &self,
        name: &str,
        position: Position,
        fields: &[EnvField],
        every: SimDuration,
    ) {
        let mut station = WeatherStation::new(name, &self.env, position, fields, self.fresh_seed());
        let infra = self.infra.clone();
        let station_name = name.to_owned();
        let source = contory::SourceId::new(format!("station://{name}"));
        let sim = self.sim.clone();
        self.sim.schedule_repeating(every, move || {
            for reading in station.observe(sim.now()) {
                let item = crate::convert::reading_to_item(&reading, source.clone());
                infra.store(crate::convert::item_to_record(
                    &item,
                    &station_name,
                    reading.position,
                ));
            }
            true
        });
    }
}

impl fmt::Debug for Testbed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Testbed")
            .field("entities", &self.entities.borrow().len())
            .finish()
    }
}
