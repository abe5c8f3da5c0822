//! Consumer-native rendering of notifications.
//!
//! "When delivering notification messages, WS-Messenger makes sure that
//! notification messages follow the expected specifications of the
//! target event consumers" (§VII). This module is that guarantee: one
//! [`InternalEvent`] in, an envelope in the subscription's dialect out.

use crate::detect::SpecDialect;
use crate::event::InternalEvent;
use crate::registry::BrokerSubscription;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;
use wsm_addressing::EndpointReference;
use wsm_eventing::WseCodec;
use wsm_notification::{NotificationMessage, SharedNotificationMessage, WsnCodec};
use wsm_soap::Envelope;
use wsm_xml::{Element, Node, SharedElement};

/// Namespace for broker-defined header extensions (the topic header on
/// WS-Eventing deliveries — §V.4(6): WSE "needs to place it in the SOAP
/// header if needed", the spec defining no body slot for it).
pub const WSM_NS: &str = "urn:ws-messenger:broker";

/// Per-publication render state, shared across the whole fan-out.
///
/// Two levels of reuse:
///
/// * The **payload subtree** — the only part of a notification that
///   grows with event size — is wrapped in one [`SharedElement`] whose
///   compact serialization is computed once and spliced into every
///   outgoing envelope, so a publication serializes its payload once
///   instead of once per subscriber.
/// * **Prototype envelopes** — a complete envelope is built once per
///   `(spec version, raw-mode)` equivalence class, addressed to a
///   placeholder consumer. Per subscriber the prototype is cloned
///   (interned names make that Arc bumps, not string copies) and only
///   the subscriber-dependent parts are patched in: the `wsa:To` text,
///   the consumer EPR's echoed reference data, and — for wrapped WSN —
///   the `SubscriptionReference` inside the `NotificationMessage`.
///
/// Each class is also measured once: its serialized length with
/// one-character placeholders in the patched texts. A rendered
/// envelope's exact length is then that figure plus the escaped
/// lengths of its own texts, and the envelope carries it (see
/// [`Envelope::memoize_xml_len`]) so the transport's byte accounting
/// does not serialize every delivery again.
///
/// The cache is `Sync`, so the parallel fan-out workers can render
/// against it concurrently.
pub struct RenderCache {
    payload: Arc<SharedElement>,
    classes: Mutex<HashMap<(SpecDialect, bool), ClassTemplate>>,
}

/// One equivalence class's prebuilt envelope plus the patch points.
#[derive(Clone)]
struct ClassTemplate {
    /// The full envelope, addressed to an empty placeholder consumer
    /// (blank `wsa:To`, no echoed reference data, and for wrapped WSN
    /// no `SubscriptionReference`).
    proto: Envelope,
    /// Header index where a consumer's echoed reference data belongs:
    /// after the MAPs (`To`, `Action`), before extension headers such
    /// as the WSE topic header.
    echo_at: usize,
    /// Wrapped WSN only: prototype `SubscriptionReference` addressing
    /// the subscription manager, its identifier element still empty.
    /// Per subscriber it is cloned, the id text patched in, and the
    /// result spliced into the `NotificationMessage` — replacing a
    /// per-subscriber EPR construction and serialization.
    sub_ref: Option<Element>,
    /// Compact length of `proto` patched with [`PLACEHOLDER`] as the
    /// `wsa:To` text and, for wrapped WSN, the subscription id, and no
    /// echoed reference data.
    len: usize,
}

/// The one-character text a class is measured with in each patched
/// slot.
const PLACEHOLDER: &str = "x";

impl RenderCache {
    /// A cache for one publication of `event`.
    ///
    /// O(1): the event already carries its payload as a shared subtree,
    /// so the cache takes a reference instead of deep-cloning the tree
    /// (which made cache construction O(payload size) in the seed).
    pub fn new(event: &InternalEvent) -> Self {
        RenderCache {
            payload: Arc::clone(&event.payload),
            classes: Mutex::new(HashMap::new()),
        }
    }

    /// The shared payload subtree.
    pub fn payload(&self) -> &Arc<SharedElement> {
        &self.payload
    }

    /// How many equivalence classes have been rendered so far.
    pub fn class_count(&self) -> usize {
        self.classes.lock().len()
    }

    fn template(
        &self,
        event: &InternalEvent,
        broker_uri: &str,
        manager_uri: &str,
        spec: SpecDialect,
        use_raw: bool,
    ) -> ClassTemplate {
        self.classes
            .lock()
            .entry((spec, use_raw))
            .or_insert_with(|| {
                let placeholder = EndpointReference::new("");
                let mut template = match spec {
                    SpecDialect::Wse(v) => {
                        let mut proto =
                            WseCodec::new(v).notification_shared(&placeholder, &self.payload);
                        let echo_at = proto.headers().len();
                        if let Some(t) = &event.topic {
                            proto.add_header(
                                Element::ns(WSM_NS, "Topic", "wsm").with_text(t.to_string()),
                            );
                        }
                        ClassTemplate {
                            proto,
                            echo_at,
                            sub_ref: None,
                            len: 0,
                        }
                    }
                    SpecDialect::Wsn(v) if use_raw => {
                        let proto =
                            WsnCodec::new(v).raw_notification_shared(&placeholder, &self.payload);
                        let echo_at = proto.headers().len();
                        ClassTemplate {
                            proto,
                            echo_at,
                            sub_ref: None,
                            len: 0,
                        }
                    }
                    SpecDialect::Wsn(v) => {
                        let message = SharedNotificationMessage {
                            topic: event.topic.clone(),
                            producer: event
                                .producer
                                .clone()
                                .or_else(|| Some(EndpointReference::new(broker_uri.to_string()))),
                            subscription: None,
                            message: Arc::clone(&self.payload),
                        };
                        let proto = WsnCodec::new(v).notify_shared(&placeholder, &[message]);
                        let echo_at = proto.headers().len();
                        ClassTemplate {
                            proto,
                            echo_at,
                            sub_ref: Some(subscription_reference_proto(v, manager_uri)),
                            len: 0,
                        }
                    }
                };
                template.len = patch(
                    template.clone(),
                    PLACEHOLDER,
                    PLACEHOLDER,
                    std::iter::empty(),
                )
                .xml_len();
                template
            })
            .clone()
    }
}

/// The subscription-manager EPR the broker mints for subscription `id`
/// under a WSN dialect: the manager address plus the dialect's
/// subscription-identifier element in the WSA-version-appropriate
/// reference container.
pub fn wsn_subscription_epr(
    v: wsm_notification::WsnVersion,
    manager_uri: &str,
    id: &str,
) -> EndpointReference {
    EndpointReference::new(manager_uri.to_string()).with_reference(
        v.wsa(),
        Element::ns(
            v.ns(),
            wsm_notification::messages::SUBSCRIPTION_ID_LOCAL,
            "wsnt",
        )
        .with_text(id),
    )
}

/// The `SubscriptionReference` prototype for a class: identical to
/// [`WsnCodec::subscription_reference`] over [`wsn_subscription_epr`],
/// except the identifier element is still empty. Shape is fixed —
/// `[Address, <reference container>[identifier]]` — so the per-sub
/// patch can address the id slot by position.
fn subscription_reference_proto(v: wsm_notification::WsnVersion, manager_uri: &str) -> Element {
    let manager = EndpointReference::new(manager_uri.to_string()).with_reference(
        v.wsa(),
        Element::ns(
            v.ns(),
            wsm_notification::messages::SUBSCRIPTION_ID_LOCAL,
            "wsnt",
        ),
    );
    WsnCodec::new(v).subscription_reference(&manager)
}

/// Render one event for one subscription through the per-publication
/// cache. Produces envelopes byte-identical to [`render_notification`]
/// over the subscription-manager EPR the broker mints (see
/// [`wsn_subscription_epr`]).
///
/// Per subscriber this clones the class prototype and patches the three
/// subscriber-dependent spots — the `wsa:To` text, the consumer's
/// echoed reference data, and (wrapped WSN) the subscription id inside
/// the prototype `SubscriptionReference` — instead of rebuilding the
/// tree, so the per-subscriber cost no longer scales with envelope
/// size.
///
/// The envelope carries its exact serialized length, derived from the
/// class's measured length, unless the consumer EPR has reference data
/// to echo; those few envelopes are measured when sent.
pub fn render_notification_cached(
    cache: &RenderCache,
    sub: &BrokerSubscription,
    event: &InternalEvent,
    broker_uri: &str,
    manager_uri: &str,
) -> Envelope {
    let t = cache.template(event, broker_uri, manager_uri, sub.spec, sub.use_raw);
    let escaped_len = |text: &str| wsm_xml::escape::escape_text(text).len();
    let mut len = t.len + escaped_len(&sub.consumer.address) - PLACEHOLDER.len();
    if t.sub_ref.is_some() {
        len = len + escaped_len(&sub.id) - PLACEHOLDER.len();
    }
    let echoes = sub.consumer.all_reference_data().next().is_some();
    let mut env = patch(
        t,
        &sub.consumer.address,
        &sub.id,
        sub.consumer.all_reference_data(),
    );
    if !echoes {
        env.memoize_xml_len(len);
    }
    env
}

/// A class prototype addressed to one subscriber: `address` as the
/// `wsa:To` text, `echo` as the echoed reference data, and for wrapped
/// WSN `id` as the subscription id.
fn patch<'a>(
    t: ClassTemplate,
    address: &str,
    id: &str,
    echo: impl Iterator<Item = &'a Element>,
) -> Envelope {
    let mut env = t.proto;
    // Patch wsa:To — always the first header the MAPs applied.
    if let Some(to) = env.header_at_mut(0) {
        to.children.clear();
        to.push_text(address);
    }
    // Echo the consumer EPR's reference data after the MAPs, before any
    // extension headers (the WSE topic header), as the plain path does.
    for (at, item) in (t.echo_at..).zip(echo) {
        env.insert_header(at, item.clone());
    }
    if let Some(proto) = t.sub_ref {
        let mut sub_ref = proto;
        // Proto shape is [Address, <container>[identifier]]; write this
        // subscription's id into the identifier slot.
        if let Some(id_el) = sub_ref
            .children
            .get_mut(1)
            .and_then(Node::as_element_mut)
            .and_then(|c| c.children.get_mut(0).and_then(Node::as_element_mut))
        {
            id_el.push_text(id);
        }
        // Notify > NotificationMessage: the reference is its first
        // child, exactly where `notify_envelope` places it.
        if let Some(nm) = env
            .body_first_mut()
            .and_then(|b| b.children.iter_mut().find_map(Node::as_element_mut))
        {
            nm.children.insert(0, Node::Element(sub_ref));
        }
    }
    env
}

/// Render one event for one subscription.
pub fn render_notification(
    sub: &BrokerSubscription,
    event: &InternalEvent,
    broker_uri: &str,
    subscription_epr: &EndpointReference,
) -> Envelope {
    match sub.spec {
        SpecDialect::Wse(v) => {
            let codec = WseCodec::new(v);
            let mut env = codec.notification(&sub.consumer, event.payload_element());
            // Topic rides in a SOAP header for WSE consumers.
            if let Some(t) = &event.topic {
                env.add_header(Element::ns(WSM_NS, "Topic", "wsm").with_text(t.to_string()));
            }
            env
        }
        SpecDialect::Wsn(v) => {
            let codec = WsnCodec::new(v);
            if sub.use_raw {
                codec.raw_notification(&sub.consumer, event.payload_element())
            } else {
                let msg = NotificationMessage {
                    topic: event.topic.clone(),
                    producer: event
                        .producer
                        .clone()
                        .or_else(|| Some(EndpointReference::new(broker_uri.to_string()))),
                    subscription: Some(subscription_epr.clone()),
                    message: event.payload_element().clone(),
                };
                codec.notify(&sub.consumer, &[msg])
            }
        }
    }
}

/// Render a wrapped batch for one subscription. Payloads arrive as the
/// shared subtrees the wrap buffer accumulated, so each one splices its
/// cached serialization into the batch envelope.
pub fn render_batch(
    sub: &BrokerSubscription,
    payloads: &[Arc<SharedElement>],
    broker_uri: &str,
    subscription_epr: &EndpointReference,
) -> Envelope {
    match sub.spec {
        SpecDialect::Wse(v) => {
            WseCodec::new(v).wrapped_notification_shared(&sub.consumer, payloads)
        }
        SpecDialect::Wsn(v) => {
            let codec = WsnCodec::new(v);
            let msgs: Vec<SharedNotificationMessage> = payloads
                .iter()
                .map(|p| SharedNotificationMessage {
                    topic: None,
                    producer: Some(EndpointReference::new(broker_uri.to_string())),
                    subscription: Some(subscription_epr.clone()),
                    message: Arc::clone(p),
                })
                .collect();
            codec.notify_shared(&sub.consumer, &msgs)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{BrokerDeliveryMode, UnifiedFilters};
    use wsm_eventing::WseVersion;
    use wsm_notification::WsnVersion;

    fn sub(spec: SpecDialect, use_raw: bool) -> BrokerSubscription {
        BrokerSubscription {
            id: "wsm-1".into(),
            spec,
            consumer: EndpointReference::new("http://c"),
            end_to: None,
            filters: UnifiedFilters::default(),
            mode: BrokerDeliveryMode::Push,
            use_raw,
        }
    }

    fn ev() -> InternalEvent {
        InternalEvent::on_topic("storms", Element::local("alert").with_text("x"))
    }

    fn mgr() -> EndpointReference {
        EndpointReference::new("http://b/subscriptions")
    }

    #[test]
    fn wse_render_is_raw_with_topic_header() {
        let env = render_notification(
            &sub(SpecDialect::Wse(WseVersion::Aug2004), false),
            &ev(),
            "http://b",
            &mgr(),
        );
        assert_eq!(env.body().unwrap().name.local, "alert", "raw body");
        let topic = env.header(WSM_NS, "Topic").unwrap();
        assert_eq!(topic.text(), "storms");
    }

    #[test]
    fn wsn_render_is_wrapped_notify() {
        let env = render_notification(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), false),
            &ev(),
            "http://b",
            &mgr(),
        );
        let body = env.body().unwrap();
        assert_eq!(body.name.local, "Notify");
        let parsed = WsnCodec::new(WsnVersion::V1_3).parse_notify(&env).unwrap();
        assert_eq!(parsed[0].topic.as_ref().unwrap().to_string(), "storms");
        assert_eq!(parsed[0].producer.as_ref().unwrap().address, "http://b");
    }

    #[test]
    fn wsn_raw_render() {
        let env = render_notification(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), true),
            &ev(),
            "http://b",
            &mgr(),
        );
        assert_eq!(env.body().unwrap().name.local, "alert");
    }

    #[test]
    fn batches_per_dialect() {
        let payloads = vec![
            SharedElement::new(Element::local("a")),
            SharedElement::new(Element::local("b")),
        ];
        let wse = render_batch(
            &sub(SpecDialect::Wse(WseVersion::Aug2004), false),
            &payloads,
            "http://b",
            &mgr(),
        );
        assert_eq!(wse.body().unwrap().name.local, "Notifications");
        assert_eq!(wse.body().unwrap().element_count(), 2);
        let wsn = render_batch(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), false),
            &payloads,
            "http://b",
            &mgr(),
        );
        assert_eq!(wsn.body().unwrap().name.local, "Notify");
        assert_eq!(wsn.body().unwrap().element_count(), 2);
    }

    #[test]
    fn cached_render_is_byte_identical_per_class() {
        let event = ev();
        let cache = RenderCache::new(&event);
        let mut shapes: Vec<(SpecDialect, bool)> =
            SpecDialect::ALL.iter().map(|d| (*d, false)).collect();
        shapes.extend(
            SpecDialect::ALL
                .iter()
                .filter(|d| matches!(d, SpecDialect::Wsn(_)))
                .map(|d| (*d, true)),
        );
        let classes = shapes.len();
        for (spec, raw) in shapes {
            let s = sub(spec, raw);
            // The plain path receives the same subscription-manager EPR
            // the cached path mints from (manager_uri, sub.id).
            let epr = match spec {
                SpecDialect::Wsn(v) => wsn_subscription_epr(v, "http://b/subscriptions", &s.id),
                SpecDialect::Wse(_) => mgr(),
            };
            let plain = render_notification(&s, &event, "http://b", &epr);
            let cached = render_notification_cached(
                &cache,
                &s,
                &event,
                "http://b",
                "http://b/subscriptions",
            );
            assert_eq!(cached.to_xml(), plain.to_xml(), "{spec:?} raw={raw}");
            // A second subscriber of the same class reuses the template.
            let again = render_notification_cached(
                &cache,
                &s,
                &event,
                "http://b",
                "http://b/subscriptions",
            );
            assert_eq!(again.to_xml(), plain.to_xml());
        }
        assert_eq!(cache.class_count(), classes);
    }

    #[test]
    fn cached_render_patches_distinct_subscription_ids() {
        let event = ev();
        let cache = RenderCache::new(&event);
        for id in ["wsm-1", "wsm-2"] {
            let mut s = sub(SpecDialect::Wsn(WsnVersion::V1_3), false);
            s.id = id.into();
            let env = render_notification_cached(&cache, &s, &event, "http://b", "http://b/subs");
            let parsed = WsnCodec::new(WsnVersion::V1_3).parse_notify(&env).unwrap();
            let epr = parsed[0].subscription.as_ref().unwrap();
            assert_eq!(epr.address, "http://b/subs");
            let item = epr
                .reference_item(
                    WsnVersion::V1_3.ns(),
                    wsm_notification::messages::SUBSCRIPTION_ID_LOCAL,
                )
                .expect("identifier patched in");
            assert_eq!(item.text(), id);
        }
    }

    #[test]
    fn original_producer_preserved_through_mediation() {
        let event = ev().from_producer(EndpointReference::new("http://origin"));
        let env = render_notification(
            &sub(SpecDialect::Wsn(WsnVersion::V1_3), false),
            &event,
            "http://b",
            &mgr(),
        );
        let parsed = WsnCodec::new(WsnVersion::V1_3).parse_notify(&env).unwrap();
        assert_eq!(
            parsed[0].producer.as_ref().unwrap().address,
            "http://origin"
        );
    }
}

#[cfg(test)]
mod memo_props {
    use super::*;
    use crate::registry::{BrokerDeliveryMode, UnifiedFilters};
    use proptest::prelude::*;
    use wsm_addressing::WsaVersion;

    /// Plain characters, the three the XML writer escapes in text, a
    /// quote and a multi-byte one.
    const ALPHABET: &[char] = &['a', 'Z', '0', '/', ':', '&', '<', '>', '"', '\'', 'é'];

    fn text() -> impl Strategy<Value = String> {
        prop::collection::vec(0..ALPHABET.len(), 0..12)
            .prop_map(|ix| ix.into_iter().map(|i| ALPHABET[i]).collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Whatever the dialect, delivery shape, topic, address, id,
        /// payload and reference data, a cached render's `xml_len` is
        /// the length of its full serialization (`to_xml` never reads
        /// the memo).
        #[test]
        fn memoized_length_equals_full_serialization(
            shape in (0..SpecDialect::ALL.len(), any::<bool>(), any::<bool>()),
            address in text(),
            id in text(),
            params in prop::collection::vec(text(), 0..3),
            payload in text(),
        ) {
            let (dialect, use_raw, topic) = shape;
            let spec = SpecDialect::ALL[dialect];
            let mut consumer = EndpointReference::new(format!("http://c/{address}"));
            for (i, p) in params.iter().enumerate() {
                let wsa = if i % 2 == 0 { WsaVersion::V200303 } else { WsaVersion::V200508 };
                consumer = consumer
                    .with_reference(wsa, Element::ns("urn:app", "Key", "app").with_text(p.clone()));
            }
            let sub = BrokerSubscription {
                id: id.clone(),
                spec,
                consumer,
                end_to: None,
                filters: UnifiedFilters::default(),
                mode: BrokerDeliveryMode::Push,
                use_raw,
            };
            let body = Element::local("alert").with_text(payload.clone());
            let event = if topic {
                InternalEvent::on_topic("storms/hail", body)
            } else {
                InternalEvent::raw(body)
            };
            let cache = RenderCache::new(&event);
            // Render twice: the first builds and measures the class, the
            // second takes the cached template.
            for _ in 0..2 {
                let env =
                    render_notification_cached(&cache, &sub, &event, "http://b", "http://b/subs");
                prop_assert_eq!(env.xml_len(), env.to_xml().len(), "{:?} raw={}", spec, use_raw);
            }
        }
    }
}
