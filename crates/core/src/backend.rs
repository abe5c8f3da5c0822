//! Pluggable underlying pub/sub backends.
//!
//! Paper §VII: "Besides using the default message filtering,
//! WS-Messenger provides a generic interface that can use existing
//! publish/subscribe systems as the underlying message systems. In this
//! way, WS-Messenger provides Web service interfaces to existing
//! messaging systems."
//!
//! The broker relays every normalized [`InternalEvent`] through the
//! backend and fans out what comes back. With [`InMemoryBackend`] the
//! event comes straight back; with [`JmsBackend`] events genuinely
//! round-trip through the `wsm-jms` provider (serialized XML in a
//! `TextMessage`, topic in a property), demonstrating the wrap.
//!
//! A relay is one call so that each publisher fans out exactly the
//! events its own publication produced: a separate publish and drain
//! over a shared queue would let one publisher deliver another's event
//! after that publisher had returned, so its next event could overtake
//! it at a subscriber.

use crate::event::InternalEvent;
use parking_lot::Mutex;
use wsm_jms::{JmsMessage, JmsProvider};
use wsm_xml::Element;

/// The generic pub/sub interface the broker rides on.
pub trait MessagingBackend: Send + Sync {
    /// Disseminate one event and return what the backend delivered
    /// for it, in order.
    fn relay(&self, event: InternalEvent) -> Vec<InternalEvent>;
    /// Backend name (for stats/logging).
    fn name(&self) -> &'static str;
}

/// The default backend: delivers each event as published.
#[derive(Default)]
pub struct InMemoryBackend;

impl InMemoryBackend {
    /// A fresh backend.
    pub fn new() -> Self {
        InMemoryBackend
    }
}

impl MessagingBackend for InMemoryBackend {
    fn relay(&self, event: InternalEvent) -> Vec<InternalEvent> {
        vec![event]
    }

    fn name(&self) -> &'static str {
        "in-memory"
    }
}

/// A backend that routes events through a JMS provider topic.
pub struct JmsBackend {
    provider: JmsProvider,
    subscription: wsm_jms::TopicSubscription,
    topic: String,
    /// Held from publish to receive, so a relay returns its own event
    /// and never another caller's.
    relaying: Mutex<()>,
}

impl JmsBackend {
    /// Wrap a JMS provider, using `topic` as the relay destination.
    pub fn new(provider: JmsProvider, topic: &str) -> Self {
        let subscription = provider.create_durable_subscriber(topic, "ws-messenger-relay", None);
        JmsBackend {
            provider,
            subscription,
            topic: topic.to_string(),
            relaying: Mutex::new(()),
        }
    }

    fn encode(event: &InternalEvent) -> JmsMessage {
        let mut m = JmsMessage::text(event.payload.xml().to_string());
        if let Some(t) = &event.topic {
            m = m.with_property("wsmTopic", t.to_string().as_str());
        }
        if let Some(p) = &event.producer {
            m = m.with_property("wsmProducer", p.address.as_str());
        }
        if let Some(o) = event.origin {
            m = m.with_property("wsmOrigin", o.label());
        }
        m
    }

    fn decode(m: &JmsMessage) -> Option<InternalEvent> {
        let text = match &m.body {
            wsm_jms::JmsBody::Text(t) => t,
            _ => return None,
        };
        let payload: Element = wsm_xml::parse(text).ok()?;
        let topic = match m.resolve("wsmTopic") {
            wsm_jms::JmsValue::String(s) => wsm_topics::TopicPath::parse(&s),
            _ => None,
        };
        let producer = match m.resolve("wsmProducer") {
            wsm_jms::JmsValue::String(s) => Some(wsm_addressing::EndpointReference::new(s)),
            _ => None,
        };
        let origin = match m.resolve("wsmOrigin") {
            wsm_jms::JmsValue::String(s) => crate::detect::SpecDialect::ALL
                .into_iter()
                .find(|d| d.label() == s),
            _ => None,
        };
        Some(InternalEvent {
            topic,
            payload: wsm_xml::SharedElement::new(payload),
            producer,
            origin,
        })
    }
}

impl MessagingBackend for JmsBackend {
    fn relay(&self, event: InternalEvent) -> Vec<InternalEvent> {
        let _relaying = self.relaying.lock();
        self.provider.publish(&self.topic, Self::encode(&event));
        let mut out = Vec::new();
        while let Some(m) = self.subscription.receive() {
            if let Some(ev) = Self::decode(&m) {
                out.push(ev);
            }
        }
        out
    }

    fn name(&self) -> &'static str {
        "jms"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_memory_relays_the_event_itself() {
        let b = InMemoryBackend::new();
        let ev = InternalEvent::on_topic("t", Element::local("b"));
        assert_eq!(b.relay(ev.clone()), vec![ev]);
        assert_eq!(b.name(), "in-memory");
    }

    #[test]
    fn jms_backend_roundtrips_events() {
        let provider = JmsProvider::new();
        let b = JmsBackend::new(provider.clone(), "wsm.relay");
        let ev = InternalEvent::on_topic("storms/hail", Element::local("alert").with_text("x"))
            .from_producer(wsm_addressing::EndpointReference::new("http://pub"))
            .with_origin(crate::detect::SpecDialect::Wsn(
                wsm_notification::WsnVersion::V1_3,
            ));
        // The event really passes through the JMS provider's relay
        // subscription.
        assert_eq!(provider.subscriber_count("wsm.relay"), 1);
        assert_eq!(b.relay(ev.clone()), vec![ev]);
        assert_eq!(b.name(), "jms");
    }

    #[test]
    fn jms_backend_preserves_payload_markup() {
        let b = JmsBackend::new(JmsProvider::new(), "t");
        let payload =
            wsm_xml::parse(r#"<e:alert xmlns:e="urn:wx" sev="4">h &amp; m</e:alert>"#).unwrap();
        assert_eq!(
            b.relay(InternalEvent::raw(payload.clone()))[0].payload_element(),
            &payload
        );
    }
}
