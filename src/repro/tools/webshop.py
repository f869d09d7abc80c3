"""Synthetic WebShop environment.

WebShop tasks ask the agent to navigate a shopping site (search, click result,
pick options, buy) to find an item satisfying attribute and price constraints.
The paper hosts the site locally, so tool calls are cheap (~20 ms) but
observations (result pages, product pages) are large, which is what drives the
long tool-history token growth seen in Fig. 8.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.sim.distributions import LogNormalSampler, RandomStream
from repro.tools.base import BaseTool, ToolAction

CATEGORIES = ["jacket", "desk lamp", "backpack", "headphones", "kettle", "sneakers",
              "notebook", "monitor", "blanket", "water bottle"]
COLORS = ["black", "navy", "olive", "crimson", "slate", "ivory", "amber", "teal"]
SIZES = ["small", "medium", "large", "x-large"]
MATERIALS = ["cotton", "aluminium", "leather", "recycled nylon", "bamboo", "steel"]


@dataclass(frozen=True)
class Product:
    """One catalogue item."""

    product_id: str
    category: str
    color: str
    size: str
    material: str
    price: float

    @property
    def title(self) -> str:
        return f"{self.color} {self.material} {self.category} ({self.size})"

    def matches(self, requirements: Dict[str, str], max_price: Optional[float]) -> bool:
        for key, value in requirements.items():
            if getattr(self, key, None) != value:
                return False
        if max_price is not None and self.price > max_price:
            return False
        return True


class ProductCatalog:
    """Seeded product catalogue with keyword search."""

    def __init__(self, stream: RandomStream, num_products: int = 400):
        if num_products < 20:
            raise ValueError("catalogue needs at least 20 products")
        self.products: List[Product] = []
        for index in range(num_products):
            self.products.append(
                Product(
                    product_id=f"B{index:06d}",
                    category=stream.choice(CATEGORIES),
                    color=stream.choice(COLORS),
                    size=stream.choice(SIZES),
                    material=stream.choice(MATERIALS),
                    price=round(stream.uniform(8.0, 220.0), 2),
                )
            )
        self._by_id = {product.product_id: product for product in self.products}

    def __len__(self) -> int:
        return len(self.products)

    def get(self, product_id: str) -> Optional[Product]:
        return self._by_id.get(product_id)

    def search(self, query: str, limit: int = 10) -> List[Product]:
        terms = [term for term in query.lower().split() if term]
        scored: List[tuple[int, Product]] = []
        for product in self.products:
            haystack = f"{product.title} {product.material} {product.category}".lower()
            score = sum(1 for term in terms if term in haystack)
            if score:
                scored.append((score, product))
        scored.sort(key=lambda pair: (-pair[0], pair[1].price))
        return [product for _, product in scored[:limit]]


class WebShopTool(BaseTool):
    """Search/click navigation over a :class:`ProductCatalog`."""

    name = "webshop"

    def __init__(self, env, tokenizer, latency_sampler: LogNormalSampler, stream: RandomStream, catalog: ProductCatalog):
        super().__init__(env, tokenizer, latency_sampler, stream)
        self.catalog = catalog
        self.current_results: List[Product] = []
        self.current_product: Optional[Product] = None
        self.purchased: Optional[Product] = None
        self.selected_options: Dict[str, str] = {}

    def _result_page(self) -> str:
        lines = ["Search results page 1 of 3. [Back to Search] [Next >]"]
        for product in self.current_results:
            lines.append(
                f"[{product.product_id}] {product.title} — ${product.price:.2f} "
                f"material {product.material}, ships in {2 + len(product.category) % 5} days"
            )
        return " \n".join(lines)

    def _product_page(self, product: Product) -> str:
        return (
            f"{product.title}. Price ${product.price:.2f}. "
            f"Options: color [{', '.join(COLORS[:4])}], size [{', '.join(SIZES)}]. "
            f"Description: a {product.material} {product.category} in {product.color}, "
            "with reinforced stitching, a two-year warranty, and free returns within 30 days. "
            "[Buy Now] [Back to Search] [< Prev]"
        )

    def _execute(self, action: ToolAction):
        if action.action == "search":
            self.current_results = self.catalog.search(action.argument)
            if not self.current_results:
                return "No results found. [Back to Search]", False, []
            return self._result_page(), True, self.current_results
        if action.action == "click":
            target = action.argument
            product = self.catalog.get(target)
            if product is not None:
                self.current_product = product
                return self._product_page(product), True, product
            if target.lower() in ("buy now", "buy"):
                if self.current_product is None:
                    return "Nothing selected to buy. [Back to Search]", False, None
                self.purchased = self.current_product
                return (
                    f"Thank you for your purchase of {self.current_product.title}!",
                    True,
                    self.current_product,
                )
            # Option click (colour/size choice) on the current product page.
            if self.current_product is not None:
                self.selected_options[target] = target
                return (
                    f"Selected option '{target}' for {self.current_product.title}. "
                    + self._product_page(self.current_product),
                    True,
                    target,
                )
            return f"Invalid click target {target}. [Back to Search]", False, None
        return f"Invalid action {action.action}.", False, None
