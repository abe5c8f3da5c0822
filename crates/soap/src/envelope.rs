//! The envelope model.

use std::fmt;
use std::sync::Arc;
use wsm_xml::{parse, Element, Node, QName, SharedElement, XmlError};

/// SOAP 1.1 envelope namespace.
pub const SOAP11_NS: &str = "http://schemas.xmlsoap.org/soap/envelope/";
/// SOAP 1.2 envelope namespace.
pub const SOAP12_NS: &str = "http://www.w3.org/2003/05/soap-envelope";

/// The SOAP version of a message.
///
/// WS-Eventing examples bind to SOAP 1.2 while much deployed
/// WS-Notification tooling used SOAP 1.1; the mediation broker must
/// speak both, so everything here is version-parameterized.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SoapVersion {
    /// SOAP 1.1.
    V11,
    /// SOAP 1.2.
    V12,
}

impl SoapVersion {
    /// The envelope namespace for this version.
    pub fn ns(self) -> &'static str {
        match self {
            SoapVersion::V11 => SOAP11_NS,
            SoapVersion::V12 => SOAP12_NS,
        }
    }

    /// The conventional envelope prefix (`soap` for 1.1, `s` for 1.2 —
    /// mirrors what the specs' examples use, which matters for the
    /// byte-level fidelity of the message-diff experiment).
    pub fn prefix(self) -> &'static str {
        match self {
            SoapVersion::V11 => "soap",
            SoapVersion::V12 => "s",
        }
    }

    /// The value the `mustUnderstand` attribute takes for "true".
    pub fn must_understand_true(self) -> &'static str {
        match self {
            SoapVersion::V11 => "1",
            SoapVersion::V12 => "true",
        }
    }
}

impl fmt::Display for SoapVersion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapVersion::V11 => write!(f, "SOAP 1.1"),
            SoapVersion::V12 => write!(f, "SOAP 1.2"),
        }
    }
}

/// Errors raised while interpreting a SOAP message.
#[derive(Debug, Clone, PartialEq)]
pub enum SoapError {
    /// Not XML at all.
    Xml(XmlError),
    /// The root element is not an Envelope in a known SOAP namespace.
    NotAnEnvelope(String),
    /// Structural problem (missing Body, Header after Body, ...).
    Structure(String),
}

impl fmt::Display for SoapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SoapError::Xml(e) => write!(f, "invalid XML: {e}"),
            SoapError::NotAnEnvelope(got) => write!(f, "root element {got} is not a SOAP envelope"),
            SoapError::Structure(s) => write!(f, "invalid SOAP structure: {s}"),
        }
    }
}

impl std::error::Error for SoapError {}

impl From<XmlError> for SoapError {
    fn from(e: XmlError) -> Self {
        SoapError::Xml(e)
    }
}

/// A SOAP envelope: optional header blocks and a body.
///
/// Body entries are [`Node`]s so a broker fanning one publication out
/// to many subscribers can splice a [`SharedElement`] payload — owned
/// once, serialized once — into every per-subscriber envelope while
/// the headers stay individually addressed. Node equality treats
/// shared and plain subtrees identically, so this is invisible to
/// comparisons and round-trips.
///
/// A renderer that knows the exact serialized length can attach it
/// ([`Envelope::memoize_xml_len`]) so [`Envelope::xml_len`] need not
/// serialize. Every mutable accessor drops the memo, and equality
/// ignores it.
#[derive(Debug, Clone)]
pub struct Envelope {
    version: SoapVersion,
    headers: Vec<Element>,
    body: Vec<Node>,
    /// The exact compact-serialization length, when a renderer
    /// attached it.
    xml_len: Option<usize>,
}

impl PartialEq for Envelope {
    fn eq(&self, other: &Self) -> bool {
        self.version == other.version && self.headers == other.headers && self.body == other.body
    }
}

impl Envelope {
    /// An empty envelope of the given version.
    pub fn new(version: SoapVersion) -> Self {
        Envelope {
            version,
            headers: Vec::new(),
            body: Vec::new(),
            xml_len: None,
        }
    }

    /// This envelope's SOAP version.
    pub fn version(&self) -> SoapVersion {
        self.version
    }

    /// Append a header block.
    pub fn add_header(&mut self, header: Element) {
        self.xml_len = None;
        self.headers.push(header);
    }

    /// Builder-style [`Envelope::add_header`].
    pub fn with_header(mut self, header: Element) -> Self {
        self.add_header(header);
        self
    }

    /// Insert a header block at `index`, shifting later headers right.
    ///
    /// WS-Addressing binding rules make header *order* observable (To,
    /// Action, then echoed reference data, then extensions), so callers
    /// patching a cloned prototype envelope need positional insertion
    /// rather than [`Envelope::add_header`]'s append.
    ///
    /// # Panics
    ///
    /// Panics if `index > self.headers().len()`.
    pub fn insert_header(&mut self, index: usize, header: Element) {
        self.xml_len = None;
        self.headers.insert(index, header);
    }

    /// Mutable access to the header block at `index`, if any.
    pub fn header_at_mut(&mut self, index: usize) -> Option<&mut Element> {
        self.xml_len = None;
        self.headers.get_mut(index)
    }

    /// Mutable access to the first body element (the usual case).
    pub fn body_first_mut(&mut self) -> Option<&mut Element> {
        self.xml_len = None;
        self.body.iter_mut().find_map(|n| match n {
            Node::Element(e) => Some(e),
            _ => None,
        })
    }

    /// Replace the body content with a single element.
    pub fn set_body(&mut self, body: Element) {
        self.xml_len = None;
        self.body = vec![Node::Element(body)];
    }

    /// Builder-style [`Envelope::set_body`].
    pub fn with_body(mut self, body: Element) -> Self {
        self.set_body(body);
        self
    }

    /// Replace the body content with a shared subtree whose
    /// serialization is cached across every envelope that embeds it.
    pub fn set_shared_body(&mut self, body: Arc<SharedElement>) {
        self.xml_len = None;
        self.body = vec![Node::Shared(body)];
    }

    /// Builder-style [`Envelope::set_shared_body`].
    pub fn with_shared_body(mut self, body: Arc<SharedElement>) -> Self {
        self.set_shared_body(body);
        self
    }

    /// All header blocks.
    pub fn headers(&self) -> &[Element] {
        &self.headers
    }

    /// The first header block with the given expanded name.
    pub fn header(&self, ns: &str, local: &str) -> Option<&Element> {
        self.headers.iter().find(|h| h.name.is(ns, local))
    }

    /// The first body element (the usual case).
    pub fn body(&self) -> Option<&Element> {
        self.body.iter().find_map(Node::as_element)
    }

    /// All body elements, shared subtrees included.
    pub fn body_elements(&self) -> impl Iterator<Item = &Element> {
        self.body.iter().filter_map(Node::as_element)
    }

    /// Mark a header block mustUnderstand=true, version-appropriately.
    pub fn must_understand(&self, mut header: Element) -> Element {
        header.attrs.push(wsm_xml::tree::Attribute {
            name: QName::ns(self.version.ns(), "mustUnderstand"),
            prefix_hint: Some(wsm_xml::intern(self.version.prefix())),
            value: self.version.must_understand_true().to_string(),
        });
        header
    }

    /// Serialize to an element tree.
    pub fn to_element(&self) -> Element {
        let ns = self.version.ns();
        let p = self.version.prefix();
        let mut env = Element::ns(ns, "Envelope", p);
        if !self.headers.is_empty() {
            let mut header = Element::ns(ns, "Header", p);
            for h in &self.headers {
                header.push(h.clone());
            }
            env.push(header);
        }
        let mut body = Element::ns(ns, "Body", p);
        for b in &self.body {
            body.children.push(b.clone());
        }
        env.push(body);
        env
    }

    /// Serialize to compact XML text.
    pub fn to_xml(&self) -> String {
        let mut out = String::with_capacity(self.xml_size_hint());
        self.write_xml_into(&mut out);
        out
    }

    /// Serialize compactly by appending to an existing buffer — the
    /// allocation-lean path the fan-out workers use with a pooled
    /// buffer from [`wsm_xml::with_buffer`].
    pub fn write_xml_into(&self, out: &mut String) {
        wsm_xml::write_into(&self.to_element(), out, wsm_xml::WriteOptions::default());
    }

    /// Estimated serialized size, used to right-size output buffers on
    /// first use. Shared body subtrees report their exact cached length;
    /// headers and plain bodies are estimated.
    pub fn xml_size_hint(&self) -> usize {
        let mut hint = 192 + self.headers.len() * 128;
        for b in &self.body {
            hint += match b {
                Node::Shared(s) => s.serialized_len(),
                _ => 256,
            };
        }
        hint
    }

    /// Byte length of the compact serialization: the memoized length
    /// when a renderer attached one ([`Envelope::memoize_xml_len`]),
    /// else computed in a pooled buffer so callers that only need the
    /// size (delivery accounting, content-length headers) allocate
    /// nothing in steady state.
    pub fn xml_len(&self) -> usize {
        self.xml_len.unwrap_or_else(|| self.measure_xml_len())
    }

    /// Attach the exact byte length of this envelope's compact
    /// serialization, which a renderer patching a measured prototype
    /// can know without serializing. [`Envelope::xml_len`] returns it
    /// until the next mutable access. Debug builds check it against a
    /// full serialization.
    pub fn memoize_xml_len(&mut self, len: usize) {
        debug_assert_eq!(len, self.measure_xml_len(), "memoized length is exact");
        self.xml_len = Some(len);
    }

    fn measure_xml_len(&self) -> usize {
        wsm_xml::with_buffer(self.xml_size_hint(), |buf| {
            self.write_xml_into(buf);
            buf.len()
        })
    }

    /// Parse an envelope from XML text, detecting the SOAP version from
    /// the envelope namespace.
    pub fn from_xml(xml: &str) -> Result<Self, SoapError> {
        Self::from_element(&parse(xml)?)
    }

    /// Interpret an already-parsed element as an envelope.
    pub fn from_element(root: &Element) -> Result<Self, SoapError> {
        let version = if root.name.is(SOAP11_NS, "Envelope") {
            SoapVersion::V11
        } else if root.name.is(SOAP12_NS, "Envelope") {
            SoapVersion::V12
        } else {
            return Err(SoapError::NotAnEnvelope(root.name.clark()));
        };
        let ns = version.ns();
        let mut headers = Vec::new();
        let mut body = None;
        for child in root.elements() {
            if child.name.is(ns, "Header") {
                if body.is_some() {
                    return Err(SoapError::Structure("Header after Body".into()));
                }
                if !headers.is_empty() {
                    return Err(SoapError::Structure("multiple Header elements".into()));
                }
                headers = child.elements().cloned().collect();
            } else if child.name.is(ns, "Body") {
                if body.is_some() {
                    return Err(SoapError::Structure("multiple Body elements".into()));
                }
                body = Some(
                    child
                        .elements()
                        .cloned()
                        .map(Node::Element)
                        .collect::<Vec<_>>(),
                );
            } else {
                return Err(SoapError::Structure(format!(
                    "unexpected envelope child {}",
                    child.name.clark()
                )));
            }
        }
        let body = body.ok_or_else(|| SoapError::Structure("missing Body".into()))?;
        Ok(Envelope {
            version,
            headers,
            body,
            xml_len: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_both_versions() {
        for v in [SoapVersion::V11, SoapVersion::V12] {
            let env = Envelope::new(v)
                .with_header(Element::ns("urn:h", "H", "h").with_text("hv"))
                .with_body(Element::ns("urn:b", "B", "b").with_text("bv"));
            let xml = env.to_xml();
            let back = Envelope::from_xml(&xml).unwrap();
            assert_eq!(back, env, "{xml}");
            assert_eq!(back.version(), v);
        }
    }

    #[test]
    fn version_detection() {
        let e11 = Envelope::new(SoapVersion::V11).with_body(Element::local("x"));
        assert_eq!(
            Envelope::from_xml(&e11.to_xml()).unwrap().version(),
            SoapVersion::V11
        );
        let e12 = Envelope::new(SoapVersion::V12).with_body(Element::local("x"));
        assert_eq!(
            Envelope::from_xml(&e12.to_xml()).unwrap().version(),
            SoapVersion::V12
        );
    }

    #[test]
    fn not_an_envelope() {
        let err = Envelope::from_xml("<r/>").unwrap_err();
        assert!(matches!(err, SoapError::NotAnEnvelope(_)));
    }

    #[test]
    fn missing_body_rejected() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><s:Header/></s:Envelope>"#);
        assert!(matches!(
            Envelope::from_xml(&xml).unwrap_err(),
            SoapError::Structure(_)
        ));
    }

    #[test]
    fn header_after_body_rejected() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><s:Body/><s:Header/></s:Envelope>"#);
        assert!(matches!(
            Envelope::from_xml(&xml).unwrap_err(),
            SoapError::Structure(_)
        ));
    }

    #[test]
    fn empty_body_is_fine() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><s:Body/></s:Envelope>"#);
        let env = Envelope::from_xml(&xml).unwrap();
        assert!(env.body().is_none());
    }

    #[test]
    fn header_lookup() {
        let env = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:a", "To", "a").with_text("x"))
            .with_header(Element::ns("urn:b", "To", "b").with_text("y"));
        assert_eq!(env.header("urn:b", "To").unwrap().text(), "y");
        assert!(env.header("urn:c", "To").is_none());
    }

    #[test]
    fn must_understand_values_differ_by_version() {
        let e11 = Envelope::new(SoapVersion::V11);
        let h = e11.must_understand(Element::ns("urn:x", "H", "x"));
        assert_eq!(h.attr_ns(SOAP11_NS, "mustUnderstand"), Some("1"));
        let e12 = Envelope::new(SoapVersion::V12);
        let h = e12.must_understand(Element::ns("urn:x", "H", "x"));
        assert_eq!(h.attr_ns(SOAP12_NS, "mustUnderstand"), Some("true"));
    }

    #[test]
    fn multiple_body_elements_preserved() {
        let mut env = Envelope::new(SoapVersion::V11);
        env.body = vec![
            Node::Element(Element::local("a")),
            Node::Element(Element::local("b")),
        ];
        let back = Envelope::from_xml(&env.to_xml()).unwrap();
        assert_eq!(back.body_elements().count(), 2);
    }

    #[test]
    fn shared_body_round_trips_and_compares_like_plain() {
        let payload = Element::ns("urn:app", "ev", "app").with_text("x & y");
        let shared_env = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:h", "To", "h").with_text("a"))
            .with_shared_body(SharedElement::new(payload.clone()));
        let plain_env = Envelope::new(SoapVersion::V12)
            .with_header(Element::ns("urn:h", "To", "h").with_text("a"))
            .with_body(payload);
        assert_eq!(shared_env, plain_env);
        assert_eq!(shared_env.to_xml(), plain_env.to_xml());
        assert_eq!(Envelope::from_xml(&shared_env.to_xml()).unwrap(), plain_env);
        assert_eq!(shared_env.body().unwrap().name.local, "ev");
    }

    #[test]
    fn memoized_len_is_returned_ignored_by_eq_and_cleared_by_every_mut_accessor() {
        let build = || {
            Envelope::new(SoapVersion::V12)
                .with_header(Element::ns("urn:h", "To", "h").with_text("a"))
                .with_body(Element::ns("urn:b", "B", "b").with_text("bv"))
        };
        let memoized = || {
            let mut env = build();
            let len = env.to_xml().len();
            env.memoize_xml_len(len);
            assert_eq!(env.xml_len, Some(len));
            assert_eq!(env.xml_len(), len);
            env
        };
        assert_eq!(memoized(), build(), "equality ignores the memo");
        type Access = fn(&mut Envelope);
        let accessors: [(&str, Access); 6] = [
            ("add_header", |e| e.add_header(Element::local("x"))),
            ("insert_header", |e| e.insert_header(0, Element::local("x"))),
            ("header_at_mut", |e| {
                e.header_at_mut(0);
            }),
            ("body_first_mut", |e| {
                e.body_first_mut();
            }),
            ("set_body", |e| e.set_body(Element::local("x"))),
            ("set_shared_body", |e| {
                e.set_shared_body(SharedElement::new(Element::local("x")))
            }),
        ];
        for (name, access) in accessors {
            let mut env = memoized();
            access(&mut env);
            assert_eq!(env.xml_len, None, "{name} clears the memo");
            assert_eq!(env.xml_len(), env.to_xml().len(), "{name}");
        }
    }

    #[test]
    fn foreign_envelope_child_rejected() {
        let xml = format!(r#"<s:Envelope xmlns:s="{SOAP12_NS}"><weird/><s:Body/></s:Envelope>"#);
        assert!(Envelope::from_xml(&xml).is_err());
    }
}

/// Check the mustUnderstand headers of an envelope against the
/// namespaces a node actually understands.
///
/// Per the SOAP processing model, a node receiving a header marked
/// `mustUnderstand` in a namespace it does not process must fault with
/// the `MustUnderstand` code rather than silently ignore it. Handlers
/// call this with the namespaces they implement (their own spec's, the
/// WS-Addressing versions, ...).
pub fn check_must_understand(
    env: &Envelope,
    understood_namespaces: &[&str],
) -> Result<(), crate::fault::Fault> {
    let soap_ns = env.version().ns();
    let mu_true = env.version().must_understand_true();
    for h in env.headers() {
        let marked = h
            .attr_ns(soap_ns, "mustUnderstand")
            .map(|v| v == mu_true || v == "1" || v == "true")
            .unwrap_or(false);
        if !marked {
            continue;
        }
        let ns = h.name.ns.as_deref().unwrap_or("");
        if !understood_namespaces.contains(&ns) {
            return Err(crate::fault::Fault {
                code: crate::fault::FaultCode::MustUnderstand,
                subcode: None,
                reason: format!(
                    "header {} is marked mustUnderstand but this node does not process its namespace",
                    h.name.clark()
                ),
                detail: None,
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod mu_tests {
    use super::*;
    use crate::fault::FaultCode;

    #[test]
    fn understood_namespaces_pass() {
        let env = Envelope::new(SoapVersion::V12).with_body(Element::local("b"));
        let h = env.must_understand(Element::ns("urn:known", "H", "k"));
        let env = env.with_header(h);
        assert!(check_must_understand(&env, &["urn:known"]).is_ok());
    }

    #[test]
    fn not_understood_faults_with_mu_code() {
        let env = Envelope::new(SoapVersion::V12).with_body(Element::local("b"));
        let h = env.must_understand(Element::ns("urn:alien", "H", "a"));
        let env = env.with_header(h);
        let fault = check_must_understand(&env, &["urn:known"]).unwrap_err();
        assert_eq!(fault.code, FaultCode::MustUnderstand);
    }

    #[test]
    fn unmarked_headers_are_ignored() {
        let env = Envelope::new(SoapVersion::V12)
            .with_body(Element::local("b"))
            .with_header(Element::ns("urn:alien", "H", "a"));
        assert!(check_must_understand(&env, &[]).is_ok());
    }

    #[test]
    fn v11_numeric_marker_accepted() {
        let env = Envelope::new(SoapVersion::V11).with_body(Element::local("b"));
        let h = env.must_understand(Element::ns("urn:alien", "H", "a"));
        let env = env.with_header(h);
        assert!(check_must_understand(&env, &[]).is_err());
    }
}
