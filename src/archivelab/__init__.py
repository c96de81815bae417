"""archivelab: a desk-scale web-archiving pipeline.

Crawls a deterministic multi-language origin, stores captures with
variant keys derived from Vary semantics and content-affecting cookies,
replays them in baseline or variant-aware mode, and measures the language
bias and composite-memento defects that sticky cookies cause.
"""

from .analyzer import (
    LanguageDistribution,
    ViolationReport,
    bias_report,
    detect_violations,
    distribution,
    language_of,
    shannon_entropy,
)
from .cookiejar import CookieJar, JarPolicy, import_netscape
from .crawler import CrawlPolicy, Frontier, crawl, extract_links, scripted_crawl
from .http_core import (
    CanonicalUri,
    Cookie,
    Headers,
    HttpRequest,
    HttpResponse,
    UriError,
    canonicalize,
    parse_accept_language,
    parse_cookie_header,
    parse_set_cookie,
)
from .origin import SiteConfig, alternate_links, handle, negotiate_language
from .replay import (
    CompositeMemento,
    ReplayMode,
    reconstruct_composite,
    select_memento,
)
from .store import (
    ArchiveRecord,
    ArchiveStore,
    StoreError,
    VariantConfig,
    VariantKey,
    derive_variant_key,
)

__version__ = "0.1.0"
